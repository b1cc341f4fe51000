package sw

import (
	"math"
	"testing"
)

func TestMachineBalance(t *testing.T) {
	a := SW26010Pro()
	if math.Abs(a.MachineBalance()-43.63) > 1e-9 {
		t.Fatalf("machine balance = %v, want the paper's 43.63 FLOP/B", a.MachineBalance())
	}
	if a.NumCPEs() != 64 {
		t.Fatalf("NumCPEs = %d, want 64", a.NumCPEs())
	}
	if a.LDMBytes != 256<<10 {
		t.Fatalf("LDM = %d, want 256 KiB", a.LDMBytes)
	}
}

func TestCountersTime(t *testing.T) {
	a := SW26010Pro()
	c := Counters{VectorFlops: a.PeakFlops * a.VectorEff} // exactly 1 s of compute
	if got := c.Time(a, true); math.Abs(got-1) > 1e-12 {
		t.Fatalf("compute-only time = %v, want 1 s", got)
	}
	c2 := Counters{MainBytes: a.MemBandwidth} // exactly 1 s of memory
	if got := c2.Time(a, true); math.Abs(got-1) > 1e-12 {
		t.Fatalf("memory-only time = %v, want 1 s", got)
	}
	both := Counters{VectorFlops: a.PeakFlops * a.VectorEff, MainBytes: a.MemBandwidth}
	if got := both.Time(a, true); math.Abs(got-1) > 1e-12 {
		t.Fatalf("overlapped time = %v, want max = 1 s", got)
	}
	if got := both.Time(a, false); math.Abs(got-2) > 1e-12 {
		t.Fatalf("serialised time = %v, want sum = 2 s", got)
	}
}

func TestCountersDMALatencyAndRMA(t *testing.T) {
	a := SW26010Pro()
	c := Counters{DMAOps: 1000, RMABytes: a.RMABandwidth / 2}
	want := 1000*a.DMALatency + 0.5
	if got := c.Time(a, true); math.Abs(got-want) > 1e-12 {
		t.Fatalf("latency time = %v, want %v", got, want)
	}
}

func TestLDMAccounting(t *testing.T) {
	l := NewLDM(100)
	l.Alloc(60)
	l.Alloc(30)
	if l.used != 90 || l.Peak() != 90 {
		t.Fatal("usage tracking wrong")
	}
	l.Free(50)
	if l.used != 40 || l.Peak() != 90 {
		t.Fatal("free/peak tracking wrong")
	}
}

func TestLDMOverflowPanics(t *testing.T) {
	l := NewLDM(100)
	defer func() {
		if recover() == nil {
			t.Fatal("LDM overflow did not panic")
		}
	}()
	l.Alloc(101)
}

func TestLDMDoubleFreePanics(t *testing.T) {
	l := NewLDM(100)
	l.Alloc(10)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	l.Free(20)
}

func TestCoreGroupOps(t *testing.T) {
	cg := NewCoreGroup(SW26010Pro())
	cg.DMAGet(0, 1024)
	cg.DMAPut(63, 2048)
	cg.RMARowBroadcast(100)
	if cg.Ct.MainBytes != 3072 || cg.Ct.DMAOps != 2 {
		t.Fatalf("DMA accounting wrong: %+v", cg.Ct)
	}
	if cg.Ct.RMABytes != 700 {
		t.Fatalf("RMA broadcast to 7 row peers should count 700 B, got %v", cg.Ct.RMABytes)
	}
}

func TestArchPresets(t *testing.T) {
	for _, a := range []Arch{SW26010Pro(), MPE(), EPYC()} {
		if a.PeakFlops <= 0 || a.MemBandwidth <= 0 || a.ScalarFlops <= 0 {
			t.Fatalf("%s: non-positive rates", a.Name)
		}
		if a.ScalarFlops >= a.PeakFlops {
			t.Fatalf("%s: scalar rate should be below vector peak", a.Name)
		}
	}
	// The CPE scalar penalty is the key modelling choice: two orders of
	// magnitude below vector peak (in-order, uncached core).
	sw := SW26010Pro()
	if r := sw.PeakFlops / sw.ScalarFlops; r < 50 || r > 300 {
		t.Fatalf("CPE scalar penalty %v, want ~128", r)
	}
}
