package mixnet

// RefillsRunning reports how many goroutines are refilling s's noise-path
// pool right now: each counts from its start until it has stopped
// touching the pool, just before it exits.
func RefillsRunning(s *Server) int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	return s.pool.running
}

// DeepenRefill makes s's noise-path pool refill as if its last dialing
// round had taken n paths, on top of whatever the next conversation round
// takes: a refill of more paths than a test will wait for.
func DeepenRefill(s *Server, n int) {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	s.pool.dial = n
}
