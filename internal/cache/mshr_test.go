package cache

import (
	"testing"

	"tssim/internal/mem"
)

func TestMSHRAllocLookupFree(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Lookup(0x1000) != nil {
		t.Fatal("lookup in empty file hit")
	}
	a := f.Alloc(0x1010, false)
	if a == nil || a.Addr != 0x1000 || a.Write {
		t.Fatalf("alloc = %+v", a)
	}
	if f.Lookup(0x1038) != a {
		t.Fatal("lookup by other offset in line failed")
	}
	b := f.Alloc(0x2000, true)
	if b == nil || !b.Write {
		t.Fatal("second alloc failed")
	}
	if f.Alloc(0x3000, false) != nil {
		t.Fatal("file overflow not detected")
	}
	if f.InUse() != 2 || f.Cap() != 2 {
		t.Fatalf("InUse/Cap = %d/%d", f.InUse(), f.Cap())
	}
	f.Free(a)
	if f.Lookup(0x1000) != nil {
		t.Fatal("freed entry still found")
	}
	if f.Alloc(0x3000, false) == nil {
		t.Fatal("alloc after free failed")
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	f := NewMSHRFile(4)
	f.Alloc(0x1000, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc must panic")
		}
	}()
	f.Alloc(0x1008, true)
}

// A full file still rejects a duplicate line with a panic before it
// answers "full".
func TestMSHRFullDuplicatePanics(t *testing.T) {
	f := NewMSHRFile(2)
	f.Alloc(0x1000, false)
	f.Alloc(0x2000, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc on a full file must panic")
		}
	}()
	f.Alloc(0x2008, true)
}

func TestMSHRRecordSpecTracksOldest(t *testing.T) {
	var m MSHR
	m.RecordSpec(3, 100, 7)
	m.RecordSpec(1, 50, 8)
	m.RecordSpec(2, 200, 9)
	if m.OldestSeq != 50 {
		t.Fatalf("OldestSeq = %d, want 50", m.OldestSeq)
	}
	if m.SpecWords != 0b0000_1110 {
		t.Fatalf("SpecWords = %#b", m.SpecWords)
	}
}

func TestMSHRVerifyOnlyAccessedWords(t *testing.T) {
	var m MSHR
	m.RecordSpec(0, 1, 42)
	var arrived mem.Line
	arrived.SetWord(0, 42)
	arrived.SetWord(5, 999) // remote wrote a different word (false sharing)
	if !m.Verify(&arrived) {
		t.Fatal("false sharing must not be a value misprediction")
	}
	arrived.SetWord(0, 43)
	if m.Verify(&arrived) {
		t.Fatal("wrong value for accessed word must fail verification")
	}
}

func TestMSHRVerifyNoSpeculation(t *testing.T) {
	var m MSHR
	var arrived mem.Line
	arrived.SetWord(0, 123)
	if !m.Verify(&arrived) {
		t.Fatal("non-speculative MSHR must always verify")
	}
}

func TestOldestSpecSeqAcrossFile(t *testing.T) {
	f := NewMSHRFile(4)
	if _, ok := f.OldestSpecSeq(); ok {
		t.Fatal("empty file reported speculation")
	}
	a := f.Alloc(0x1000, false)
	b := f.Alloc(0x2000, false)
	f.Alloc(0x3000, false) // no spec on this one
	a.RecordSpec(0, 500, 1)
	b.RecordSpec(0, 300, 2)
	if seq, ok := f.OldestSpecSeq(); !ok || seq != 300 {
		t.Fatalf("OldestSpecSeq = %d,%v; want 300,true", seq, ok)
	}
	f.Free(b)
	if seq, ok := f.OldestSpecSeq(); !ok || seq != 500 {
		t.Fatalf("after free = %d,%v; want 500,true", seq, ok)
	}
}

func TestMSHRFileForEach(t *testing.T) {
	f := NewMSHRFile(8)
	f.Alloc(0x1000, false)
	f.Alloc(0x2000, true)
	seen := 0
	f.ForEach(func(m *MSHR) { seen++ })
	if seen != 2 {
		t.Fatalf("ForEach visited %d, want 2", seen)
	}
}
