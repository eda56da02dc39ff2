package core

import (
	"fmt"

	"livesim/internal/prof"
)

// This file is the session face of the simulation-core activity profiler
// (internal/prof). A profiler is per-pipe: ProfileStart attaches one to
// the pipe's kernel, ProfileStop detaches it but keeps the accumulated
// statistics readable, ProfileReset zeroes them, and ProfileSnapshot
// exports the per-pipe snapshots that back the `profile report` verb and
// the admin plane's /profilez endpoint.
//
// Attach/detach mutate the kernel and therefore follow the same
// serialization contract as runs: the shell is single-threaded and
// livesimd's per-session worker serializes every verb, so these methods
// never race a tick. Snapshots are safe from any goroutine.

// PipeProfile is one pipe's profile view: whether recording is currently
// enabled and the statistics accumulated so far (which survive a stop).
type PipeProfile struct {
	Pipe     string         `json:"pipe"`
	Enabled  bool           `json:"enabled"`
	Snapshot *prof.Snapshot `json:"snapshot"`
}

// profileTargets resolves a pipe-name argument: "" selects every pipe in
// instantiation order, a name selects that pipe.
func (s *Session) profileTargets(pipeName string) ([]*Pipe, error) {
	if pipeName == "" {
		pipes := make([]*Pipe, 0, len(s.pipeOrder))
		for _, n := range s.pipeOrder {
			pipes = append(pipes, s.pipes[n])
		}
		return pipes, nil
	}
	p, ok := s.pipes[pipeName]
	if !ok {
		return nil, fmt.Errorf("no pipe %q", pipeName)
	}
	return []*Pipe{p}, nil
}

// ProfileStart attaches the activity profiler to the named pipe ("" =
// all pipes) and returns how many pipes are now recording. Restarting an
// already-recording pipe is a no-op; a pipe stopped earlier resumes and
// keeps accumulating into its existing statistics.
func (s *Session) ProfileStart(pipeName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pipes, err := s.profileTargets(pipeName)
	if err != nil {
		return 0, err
	}
	for _, p := range pipes {
		if p.profiler == nil {
			p.profiler = prof.New()
		}
		if p.Sim.Profiler() != p.profiler {
			p.Sim.SetProfiler(p.profiler)
		}
	}
	return len(pipes), nil
}

// ProfileStop detaches the profiler from the named pipe ("" = all pipes)
// so ticking returns to the nil-cost path. Accumulated statistics stay
// readable via ProfileSnapshot until a ProfileReset.
func (s *Session) ProfileStop(pipeName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pipes, err := s.profileTargets(pipeName)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range pipes {
		if p.Sim.Profiler() != nil {
			p.Sim.SetProfiler(nil)
			n++
		}
	}
	return n, nil
}

// ProfileReset zeroes the named pipe's accumulated statistics ("" = all
// pipes). Recording state is unchanged.
func (s *Session) ProfileReset(pipeName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pipes, err := s.profileTargets(pipeName)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range pipes {
		if p.profiler != nil {
			p.profiler.Reset()
			n++
		}
	}
	return n, nil
}

// ProfileSnapshot exports the profile of every selected pipe that has
// one ("" = all pipes), in instantiation order. A pipe that was never
// profiled contributes nothing; asking for a specific unknown pipe is an
// error.
func (s *Session) ProfileSnapshot(pipeName string) ([]PipeProfile, error) {
	s.mu.Lock()
	pipes, err := s.profileTargets(pipeName)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	type ent struct {
		name    string
		enabled bool
		p       *prof.Profiler
	}
	ents := make([]ent, 0, len(pipes))
	for _, p := range pipes {
		if p.profiler == nil {
			continue
		}
		ents = append(ents, ent{p.Name, p.Sim.Profiler() != nil, p.profiler})
	}
	s.mu.Unlock()

	// Snapshot outside s.mu: it takes the profiler's own lock and may be
	// sizeable for big hierarchies.
	out := make([]PipeProfile, len(ents))
	for i, e := range ents {
		out[i] = PipeProfile{Pipe: e.name, Enabled: e.enabled, Snapshot: e.p.Snapshot()}
	}
	return out, nil
}

// profileSummary aggregates the per-pipe profilers for Health: how many
// pipes are recording, total bound instances, and the quiescent share of
// all instance commits observed so far (prof.Totals.QuiescentFraction).
func (s *Session) profileSummary() (pipes, instances int, quiescentPct float64) {
	s.mu.Lock()
	var agg prof.Totals
	for _, name := range s.pipeOrder {
		p := s.pipes[name]
		if p.profiler == nil {
			continue
		}
		if p.Sim.Profiler() != nil {
			pipes++
		}
		agg.Add(p.profiler.Totals())
	}
	s.mu.Unlock()
	return pipes, agg.Instances, 100 * agg.QuiescentFraction()
}

// publishProfStats bridges the per-pipe profiler totals into registry
// gauges on snapshot, mirroring publishVMStats: the recording hot path
// stays atomic-only and the registry is only consulted at scrape time.
func (s *Session) publishProfStats() {
	s.mu.Lock()
	names := append([]string(nil), s.pipeOrder...)
	profs := make([]*prof.Profiler, 0, len(names))
	enabled := 0
	for _, name := range names {
		p := s.pipes[name]
		if p.profiler == nil {
			continue
		}
		profs = append(profs, p.profiler)
		if p.Sim.Profiler() != nil {
			enabled++
		}
	}
	s.mu.Unlock()

	var agg prof.Totals
	for _, pr := range profs {
		agg.Add(pr.Totals())
	}
	s.metrics.Gauge("prof_pipes_enabled").Set(uint64(enabled))
	s.metrics.Gauge("prof_instances").Set(uint64(agg.Instances))
	s.metrics.Gauge("prof_comb_evals").Set(agg.CombEvals)
	s.metrics.Gauge("prof_seq_evals").Set(agg.SeqEvals)
	s.metrics.Gauge("prof_toggles").Set(agg.Toggles)
	s.metrics.Gauge("prof_quiescent_evals").Set(agg.QuiescentEvals)
	s.metrics.Gauge("prof_eval_ns").Set(agg.EvalNs)
	s.metrics.Gauge("prof_cycles").Set(agg.Cycles)
}
