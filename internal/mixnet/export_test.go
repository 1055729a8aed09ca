package mixnet

// RefillsRunning reports how many goroutines are refilling s's noise-path
// pool right now: each counts from its start until it has stopped
// touching the pool, just before it exits.
func RefillsRunning(s *Server) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return s.pool.running
}
