package chaos

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/wire"
)

// relay is the per-connection fault applicator: it sits between the
// application end of a dialed connection and the real endpoint,
// forwarding whole wire frames in both directions and applying the
// controller's current link rules per frame.
//
// Operating on frames rather than bytes is what keeps fault injection
// protocol-clean: a cut drops entire requests or responses (the peer
// observes silence and the RPC layer a timeout — never a half-frame
// that would corrupt the stream after the partition heals), and added
// latency delays delivery inside the relay without holding any lock the
// sender's other traffic needs.
//
// Each direction is one goroutine, so per-direction delivery stays FIFO
// even under jitter — injected latency reorders nothing, it only
// shifts delivery times, which keeps replays deterministic in effect.
type relay struct {
	ctl      *Controller
	src, dst string
	app      net.Conn // relay-side end of the pipe handed to the dialer
	real     net.Conn // connection to the true endpoint

	once sync.Once
}

func newRelay(ctl *Controller, src, dst string, app, real net.Conn) *relay {
	return &relay{ctl: ctl, src: src, dst: dst, app: app, real: real}
}

func (r *relay) start() {
	go r.pump(r.app, r.real, r.src, r.dst, r.ctl.linkRNG(r.src, r.dst, false))
	go r.pump(r.real, r.app, r.dst, r.src, r.ctl.linkRNG(r.src, r.dst, true))
}

// pump forwards frames from conn `from` to conn `to`; the flow
// direction is fromName→toName for rule lookups.
func (r *relay) pump(from, to net.Conn, fromName, toName string, rng *rand.Rand) {
	for {
		f, err := wire.ReadFrame(from, 0)
		if err != nil {
			r.close()
			return
		}
		if r.ctl.isCut(fromName, toName) {
			r.ctl.Record(KindFrameDrop)
			continue // the frame vanishes into the partition
		}
		if spec, ok := r.ctl.latencyFor(fromName, toName); ok {
			d := spec.delay
			if spec.jitter > 0 {
				d += time.Duration(rng.Int63n(int64(2*spec.jitter))) - spec.jitter
			}
			if d > 0 {
				r.ctl.Record(KindFrameDelay)
				storage.Wait(d)
				// Rules may have changed while the frame was "in flight":
				// a partition installed mid-delay eats it, like a packet
				// still on the wire when the link dies.
				if r.ctl.isCut(fromName, toName) {
					r.ctl.Record(KindFrameDrop)
					continue
				}
			}
		}
		if err := wire.WriteFrame(to, &f); err != nil {
			r.close()
			return
		}
	}
}

// close tears both ends down (idempotent); the application side sees a
// connection reset, the real endpoint an EOF.
func (r *relay) close() {
	r.once.Do(func() {
		r.app.Close()
		r.real.Close()
		r.ctl.removeRelay(r)
	})
}
