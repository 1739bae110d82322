package server

import "repro/internal/experiment"

// Scheduler exposes the Server's run scheduler to the external test
// package, which installs sim hooks and reads counters through it.
func (s *Server) Scheduler() *experiment.Scheduler { return s.sched }
