package cpu

import (
	"testing"

	"tssim/internal/isa"
)

// These tests pin the olderStoreScan verdicts the disambiguation
// filter must preserve: the filter may only ever short-circuit to
// (false, nil) when the full walk would have said exactly that, and a
// filter hit must fall back to a walk with an identical verdict.

// scanCore builds a core with an empty program so the window can be
// populated by hand.
func scanCore(t *testing.T) (*Core, *fakeMem) {
	t.Helper()
	b := isa.NewBuilder("scan-stub")
	b.Halt()
	c, f, _ := newTestCore(t, b.Build(), false)
	return c, f
}

// addScanStore appends a store to the window and registers it with the
// disambiguation filter exactly as dispatch + address resolution do:
// an unresolved store counts toward lsqUnresolved, a resolved one
// occupies its address bucket (and bumps lsqVer, as issue() does at
// resolution time).
func addScanStore(c *Core, seq, addr, val uint64, resolved, dataReady bool) *entry {
	e := &entry{seq: seq, ins: isa.Instr{Op: isa.OpSt}, isStore: true}
	c.storesInFlight++
	if resolved {
		e.effAddr = addr
		e.addrKnown = true
		c.lsqBucket[lsqBucketOf(addr)]++
		c.lsqVer++
	} else {
		e.needsAddr = true
		c.lsqUnresolved++
	}
	e.src[1] = val
	e.srcReady[1] = dataReady
	c.ruu = append(c.ruu, e)
	return e
}

func addScanLoad(c *Core, seq, addr uint64) *entry {
	e := &entry{seq: seq, ins: isa.Instr{Op: isa.OpLd}, isLoad: true}
	e.effAddr = addr
	e.addrKnown = true
	e.src[0] = addr
	e.srcReady = [2]bool{true, true}
	c.ruu = append(c.ruu, e)
	return e
}

// A store to a different word of the same cache line must not stall or
// forward: disambiguation is word-granular, so same-line partial
// overlap is a non-conflict and the filter's fast path may answer it.
func TestOlderStoreScanSameLinePartialOverlap(t *testing.T) {
	c, _ := scanCore(t)
	addScanStore(c, 1, 0x100, 55, true, true)
	ld := addScanLoad(c, 2, 0x108) // same 64B line, next word

	if stall, fwd := c.olderStoreScanFull(ld); stall || fwd != nil {
		t.Fatalf("full scan: stall=%v fwd=%v, want false/nil", stall, fwd)
	}
	if stall, fwd := c.olderStoreScan(ld); stall || fwd != nil {
		t.Fatalf("filtered scan: stall=%v fwd=%v, want false/nil", stall, fwd)
	}
}

// End-to-end twin of the partial-overlap case: the load must read
// memory, not the same-line store.
func TestSameLinePartialOverlapLoadsFromMemory(t *testing.T) {
	b := isa.NewBuilder("partial")
	b.Li(isa.R1, 0x100).Li(isa.R2, 55)
	b.St(isa.R2, isa.R1, 0)
	b.Ld(isa.R3, isa.R1, 8)
	b.Halt()
	c, f, ctrs := newTestCore(t, b.Build(), false)
	f.mem.WriteWord(0x108, 77)
	run(t, c, 1000)
	if c.Reg(isa.R3) != 77 {
		t.Fatalf("r3 = %d, want 77 (memory, not the same-line store)", c.Reg(isa.R3))
	}
	if n := ctrs.Get("cpu/lsq_forward"); n != 0 {
		t.Fatalf("lsq_forward = %d, want 0", n)
	}
}

// An older store whose address is still unresolved must stall every
// younger load; once it resolves to a non-conflicting address the
// verdict flips. The unresolved counter keeps the filter off its fast
// path for the first half, and the resolution-time lsqVer bump is what
// invalidates the memoized stall for the second.
func TestOlderStoreScanUnknownAddressStalls(t *testing.T) {
	c, _ := scanCore(t)
	st := addScanStore(c, 1, 0, 55, false, true)
	ld := addScanLoad(c, 2, 0x200)

	if stall, _ := c.olderStoreScanFull(ld); !stall {
		t.Fatal("full scan: unresolved older store did not stall the load")
	}
	if stall, _ := c.olderStoreScan(ld); !stall {
		t.Fatal("filtered scan: unresolved older store did not stall the load")
	}
	if ld.scanVer != c.lsqVer {
		t.Fatal("verdict was not memoized")
	}

	// Resolve the store to a different line, as issue() does.
	st.effAddr = 0x400
	st.addrKnown = true
	st.needsAddr = false
	c.lsqUnresolved--
	c.lsqBucket[lsqBucketOf(st.effAddr)]++
	c.lsqVer++

	if stall, fwd := c.olderStoreScan(ld); stall || fwd != nil {
		t.Fatalf("after resolution: stall=%v fwd=%v, want false/nil", stall, fwd)
	}
}

// A load must forward from the youngest older in-window store even
// when memory (and the post-retirement store buffer behind it) holds a
// different, older value: LSQ entries are younger than anything
// retired, so the in-window match wins.
func TestLSQForwardingBeatsStoreBuffer(t *testing.T) {
	c, f := scanCore(t)
	f.mem.WriteWord(0x100, 1) // what a retired store left behind
	st := addScanStore(c, 1, 0x100, 2, true, true)
	ld := addScanLoad(c, 2, 0x100)

	stall, fwd := c.olderStoreScan(ld)
	if stall || fwd != st {
		t.Fatalf("scan: stall=%v fwd=%v, want forward from the in-window store", stall, fwd)
	}
	if c.issueLoad(ld) != loadIssued {
		t.Fatal("issueLoad refused a forwardable load")
	}
	if ld.result != 2 {
		t.Fatalf("forwarded value = %d, want 2 (LSQ), not 1 (memory/store buffer)", ld.result)
	}
}

// A constructed filter false positive — a resolved store whose address
// hashes to the load's bucket without matching it — must fall back to
// the full scan and return its exact verdict.
func TestOlderStoreScanFilterFalsePositive(t *testing.T) {
	const stAddr, ldAddr = 0x100, 0x100 + 64*8 // distinct words, same bucket
	if lsqBucketOf(stAddr) != lsqBucketOf(ldAddr) {
		t.Fatal("test addresses no longer collide in the filter hash")
	}
	c, _ := scanCore(t)
	addScanStore(c, 1, stAddr, 55, true, true)
	ld := addScanLoad(c, 2, ldAddr)

	if c.lsqBucket[lsqBucketOf(ldAddr)] == 0 {
		t.Fatal("filter did not register the colliding store")
	}
	fullStall, fullFwd := c.olderStoreScanFull(ld)
	stall, fwd := c.olderStoreScan(ld)
	if stall != fullStall || fwd != fullFwd {
		t.Fatalf("filtered verdict (%v,%v) != full verdict (%v,%v)", stall, fwd, fullStall, fullFwd)
	}
	if stall || fwd != nil {
		t.Fatalf("colliding non-match: stall=%v fwd=%v, want false/nil", stall, fwd)
	}
}

// The memo contract: a verdict is reused while lsqVer stands, and any
// scan-input change must bump lsqVer to invalidate it. A matching
// store whose data is not ready stalls; when the data broadcast lands
// (srcReady[1] set, lsqVer bumped — as broadcast does), the re-derived
// verdict forwards.
func TestOlderStoreScanMemoInvalidation(t *testing.T) {
	c, _ := scanCore(t)
	st := addScanStore(c, 1, 0x100, 0, true, false) // address known, data pending
	ld := addScanLoad(c, 2, 0x100)

	if stall, _ := c.olderStoreScan(ld); !stall {
		t.Fatal("matching store with pending data did not stall")
	}
	// Same inputs: the memoized stall must be served again.
	if ld.scanVer != c.lsqVer {
		t.Fatal("stall verdict not memoized")
	}
	if stall, _ := c.olderStoreScan(ld); !stall {
		t.Fatal("memoized verdict changed without an input change")
	}

	st.src[1] = 9
	st.srcReady[1] = true
	c.lsqVer++ // broadcast's slot-1 store-data bump

	stall, fwd := c.olderStoreScan(ld)
	if stall || fwd != st {
		t.Fatalf("after data ready: stall=%v fwd=%v, want forward", stall, fwd)
	}
}
