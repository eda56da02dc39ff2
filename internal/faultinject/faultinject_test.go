package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if err := p.CompileFault("parse"); err != nil {
		t.Error(err)
	}
	if p.ConnRequest(1) {
		t.Error("nil plan must not drop connections")
	}
	if d := p.ResponseDelay(); d != 0 {
		t.Errorf("nil plan delay %v", d)
	}
	if err := p.ReloadFault("k"); err != nil {
		t.Error(err)
	}
	if err := p.SaveStage("after-temp"); err != nil {
		t.Error(err)
	}
	data := []byte{1, 2, 3}
	if got := p.Corrupt(data); &got[0] != &data[0] || got[0] != 1 {
		t.Error("nil Corrupt must pass data through")
	}
	p.TestbenchStep(100) // must not panic
	if f := p.Fired(); f != nil {
		t.Errorf("fired %v", f)
	}
}

func TestCompileFaultFiresOnce(t *testing.T) {
	p := New().FailCompileAt("elab")
	if err := p.CompileFault("parse"); err != nil {
		t.Error("wrong phase fired")
	}
	err := p.CompileFault("elab")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if err := p.CompileFault("elab"); err != nil {
		t.Error("fault fired twice")
	}
	if f := p.Fired(); len(f) != 1 || f[0] != "compile:elab" {
		t.Errorf("fired %v", f)
	}
}

func TestReloadFaultNth(t *testing.T) {
	p := New().FailReload("stage", 2)
	if err := p.ReloadFault("stage"); err != nil {
		t.Error("attempt 1 must pass")
	}
	if err := p.ReloadFault("other"); err != nil {
		t.Error("other key must pass")
	}
	if err := p.ReloadFault("stage"); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt 2 must fail, got %v", err)
	}
	if err := p.ReloadFault("stage"); err != nil {
		t.Error("attempt 3 must pass (fault consumed)")
	}
}

func TestCorruptOnce(t *testing.T) {
	p := New().CorruptCheckpoint(1)
	data := []byte{0, 0, 0}
	p.Corrupt(data)
	if data[1] != 0xff {
		t.Errorf("data %v", data)
	}
	data2 := []byte{0, 0, 0}
	p.Corrupt(data2)
	if data2[1] != 0 {
		t.Error("corruption fired twice")
	}
	// Offsets wrap so any non-negative offset lands in range.
	p2 := New().CorruptCheckpoint(7)
	d := []byte{0, 0, 0}
	p2.Corrupt(d)
	if d[1] != 0xff {
		t.Errorf("wrapped offset: %v", d)
	}
}

func TestTestbenchPanicOnce(t *testing.T) {
	p := New().PanicTestbenchAt(50)
	p.TestbenchStep(49) // not the armed cycle
	p.TestbenchStep(55) // exact match only: must not panic
	fired := func() (fired bool) {
		defer func() { fired = recover() != nil }()
		p.TestbenchStep(50)
		return false
	}()
	if !fired {
		t.Fatal("no panic at armed cycle")
	}
	p.TestbenchStep(50) // consumed: must not panic
}

func TestConnDropOnce(t *testing.T) {
	p := New().DropConnAfter(2)
	if p.ConnRequest(1) {
		t.Error("request 1 must pass")
	}
	if !p.ConnRequest(2) {
		t.Fatal("request 2 must drop")
	}
	if p.ConnRequest(2) {
		t.Error("drop fired twice")
	}
	if f := p.Fired(); len(f) != 1 || f[0] != "conn-drop:2" {
		t.Errorf("fired %v", f)
	}
}

func TestSlowClientConsumesUses(t *testing.T) {
	p := New().SlowClient(3*time.Millisecond, 2)
	if d := p.ResponseDelay(); d != 3*time.Millisecond {
		t.Fatalf("delay 1 = %v", d)
	}
	if d := p.ResponseDelay(); d != 3*time.Millisecond {
		t.Fatalf("delay 2 = %v", d)
	}
	if d := p.ResponseDelay(); d != 0 {
		t.Fatalf("delay 3 = %v, want 0 (consumed)", d)
	}
	if f := p.Fired(); len(f) != 1 || f[0] != "slow-client" {
		t.Errorf("fired %v", f)
	}
}

func TestSaveStage(t *testing.T) {
	p := New().CrashSaveAt("after-temp")
	if err := p.SaveStage("after-backup"); err != nil {
		t.Error("wrong stage fired")
	}
	if err := p.SaveStage("after-temp"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if err := p.SaveStage("after-temp"); err != nil {
		t.Error("fired twice")
	}
}

func TestDiskFullAppends(t *testing.T) {
	p := New().DiskFullAppends(3, 2)
	for i := 1; i <= 2; i++ {
		if err := p.WALWriteErr(i); err != nil {
			t.Fatalf("append %d should succeed: %v", i, err)
		}
	}
	for i := 3; i <= 4; i++ {
		if err := p.WALWriteErr(i); !errors.Is(err, ErrInjected) {
			t.Fatalf("append %d: %v, want ErrInjected", i, err)
		}
	}
	if err := p.WALWriteErr(5); err != nil {
		t.Fatalf("append 5 after faults consumed: %v", err)
	}
	f := p.Fired()
	if len(f) != 2 || f[0] != "disk-full:3" || f[1] != "disk-full:4" {
		t.Errorf("fired %v", f)
	}
	var nilPlan *Plan
	if err := nilPlan.WALWriteErr(1); err != nil {
		t.Errorf("nil plan injected: %v", err)
	}
}

func TestFailWALSync(t *testing.T) {
	p := New()
	if err := p.WALSyncErr(); err != nil {
		t.Fatalf("unarmed plan failed an fsync: %v", err)
	}
	p.FailWALSync()
	if err := p.WALSyncErr(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed fsync: %v, want ErrInjected", err)
	}
	if err := p.WALSyncErr(); err != nil {
		t.Fatalf("fired twice: %v", err)
	}
	if f := p.Fired(); len(f) != 1 || f[0] != "wal-sync" {
		t.Errorf("fired %v", f)
	}
	var nilPlan *Plan
	if err := nilPlan.WALSyncErr(); err != nil {
		t.Errorf("nil plan injected: %v", err)
	}
}

func TestForceDiskFree(t *testing.T) {
	p := New()
	if _, _, ok := p.DiskFree(); ok {
		t.Fatal("unarmed plan reported an override")
	}
	p.ForceDiskFree(5, 100)
	// Persistent, not one-shot: the ladder re-probes on a ticker.
	for i := 0; i < 3; i++ {
		free, total, ok := p.DiskFree()
		if !ok || free != 5 || total != 100 {
			t.Fatalf("probe %d: free=%d total=%d ok=%v", i, free, total, ok)
		}
	}
	var nilPlan *Plan
	if _, _, ok := nilPlan.DiskFree(); ok {
		t.Error("nil plan reported an override")
	}
}
