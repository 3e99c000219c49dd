package serve

// overloaded reports the current load factor — executing plus waiting
// searches over the admission bound — and whether it has reached the
// degrade threshold. Always false when the policy is disabled.
func (s *Server) overloaded() (float64, bool) {
	if s.degradeThreshold <= 0 {
		return 0, false
	}
	load := float64(len(s.sem)+int(s.waiting.Load())) / float64(cap(s.sem))
	return load, load >= s.degradeThreshold
}
