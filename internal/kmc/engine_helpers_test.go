package kmc

// Engine helpers only tests use: the vacancy count, the summed
// propensity and a run to a clock limit.

// NumVacancies returns the number of tracked vacancies.
func (e *Engine) NumVacancies() int { return len(e.cache.Systems) }

// TotalRate returns the current summed propensity (refreshing any stale
// systems first).
func (e *Engine) TotalRate() float64 {
	e.refreshAll()
	return e.tree.Total()
}

// RunUntil advances the clock to t (or until no events are possible) and
// returns the number of executed hops.
func (e *Engine) RunUntil(t float64) int {
	n := 0
	for e.time < t {
		if _, ok := e.Step(t); !ok {
			break
		}
		n++
	}
	return n
}
