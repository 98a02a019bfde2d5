package cache

import (
	"testing"

	"tssim/internal/mem"
)

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	sinkLine *Line
	sinkMSHR *MSHR
)

// BenchmarkCacheLookup times Lookup on the default per-node L2 geometry
// (256 KiB, 8 ways) with a full set: a hit on the last way and a miss.
func BenchmarkCacheLookup(b *testing.B) {
	c := New(Config{SizeBytes: 256 * 1024, Assoc: 8})
	stride := uint64(c.Config().Sets() * mem.LineSize) // same set, next tag
	const base = 0x100000
	for w := uint64(0); w < 8; w++ {
		c.Allocate(base + w*stride)
	}
	for _, bc := range []struct {
		name string
		addr uint64
		hit  bool
	}{{"hit", base + 7*stride, true}, {"miss", base + 8*stride, false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkLine = c.Lookup(bc.addr)
			}
			if (sinkLine != nil) != bc.hit {
				b.Fatalf("Lookup(%#x) = %v, want hit %v", bc.addr, sinkLine, bc.hit)
			}
		})
	}
}

// BenchmarkMSHRFile times the default 8-entry file: Lookup hitting the
// last live entry and missing a full file, Alloc into the one free slot
// (freed again each iteration), and Alloc on a full file, the answer a
// load that finds the MSHRs exhausted gets.
func BenchmarkMSHRFile(b *testing.B) {
	const n, base = 8, 0x100000
	full := NewMSHRFile(n)
	for i := 0; i < n; i++ {
		full.Alloc(uint64(base+i*mem.LineSize), false)
	}
	last := uint64(base + (n-1)*mem.LineSize)
	absent := uint64(base + n*mem.LineSize)
	b.Run("lookup-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMSHR = full.Lookup(last)
		}
	})
	b.Run("lookup-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMSHR = full.Lookup(absent)
		}
	})
	b.Run("alloc-free", func(b *testing.B) {
		f := NewMSHRFile(n)
		for i := 0; i < n-1; i++ {
			f.Alloc(uint64(base+i*mem.LineSize), false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := f.Alloc(last, false)
			f.Free(m)
		}
	})
	b.Run("alloc-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkMSHR = full.Alloc(absent, false)
		}
		if sinkMSHR != nil {
			b.Fatal("Alloc on a full file succeeded")
		}
	})
}
