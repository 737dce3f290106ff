package overload

import "sync"

// call is one in-flight singleflight execution.
type call struct {
	wg    sync.WaitGroup
	val   any
	err   error
	joins int // callers that joined it, counted under Group.mu
}

// A Group coalesces concurrent calls with the same key into one
// execution whose result every caller shares — the fix for the
// generate-on-every-concurrent-miss dogpile. The zero value is ready
// to use.
type Group struct {
	mu    sync.Mutex
	m     map[string]*call
	spare *call // a finished call no caller joined, for the next execution
}

// Do runs fn once per key among concurrent callers. shared reports
// whether this caller received another execution's result. Results
// are not cached beyond the in-flight window: once the original call
// returns, the next Do with the same key executes again (caching is
// the ByteLRU's job, with its own bounds).
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.joins++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := g.spare
	if c == nil {
		c = new(call)
	}
	g.spare = nil
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	v, err = fn()

	g.mu.Lock()
	delete(g.m, key)
	if c.joins == 0 {
		// Out of the map, nobody can join it any more, and nobody did:
		// no one else reads it, so it serves the next execution.
		c.wg.Done()
		g.spare = c
		g.mu.Unlock()
		return v, err, false
	}
	c.val, c.err = v, err
	g.mu.Unlock()
	c.wg.Done()
	return v, err, false
}
