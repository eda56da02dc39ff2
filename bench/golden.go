package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// goldenPath holds, for seed 1, what every workload's first round must
// end in. The final cycle and the architectural fingerprint are strict:
// no change that only makes the simulator faster may move them. The VM op
// total is how much host work the kernel spent getting there — a kernel
// optimisation lowers it — so a different total is reported, not refused.
var goldenPath = filepath.Join("bench", "golden.json")

type golden struct {
	FinalCycle uint64 `json:"final_cycle"`
	Arch       string `json:"arch"`
	VMOps      uint64 `json:"vm_ops"`
}

// checkGolden compares a run's statistics with the recorded ones for its
// seed, if any are recorded. The returned note is empty when everything
// matched.
func checkGolden(workload string, seed int64, s simStats) (note string, err error) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return "", fmt.Errorf("golden: %w", err)
	}
	var all map[string]map[string]golden
	if err := json.Unmarshal(data, &all); err != nil {
		return "", fmt.Errorf("golden: %s: %w", goldenPath, err)
	}
	want, ok := all[strconv.FormatInt(seed, 10)][workload]
	if !ok {
		return "", nil
	}
	return compareGolden(workload, want, s)
}

func compareGolden(workload string, want golden, s simStats) (string, error) {
	if s.FinalCycle != want.FinalCycle || s.Arch != want.Arch {
		return "", fmt.Errorf("golden: %s ended at cycle %d with architectural state %.12s, recorded are cycle %d and %.12s",
			workload, s.FinalCycle, s.Arch, want.FinalCycle, want.Arch)
	}
	if s.VMOps != want.VMOps {
		return fmt.Sprintf("vm_ops %d, recorded %d", s.VMOps, want.VMOps), nil
	}
	return "", nil
}
