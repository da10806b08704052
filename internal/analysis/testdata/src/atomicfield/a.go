// Test cases for the atomicfield analyzer.
package a

import "sync/atomic"

type counter struct {
	n     int64
	typed atomic.Int64
}

func (c *counter) inc() {
	atomic.AddInt64(&c.n, 1) // want `atomic.AddInt64 on a plain value`
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.n) // want `atomic.LoadInt64 on a plain value`
}

// The typed atomic's methods are the sanctioned form.
func (c *counter) incTyped() int64 {
	c.typed.Add(1)
	return c.typed.Load()
}

func (c *counter) suppressed() {
	//ftclint:ignore atomicfield the field is laid out by an external ABI and cannot change type
	atomic.StoreInt64(&c.n, 0)
}
