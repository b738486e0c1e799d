package core

import (
	"encoding/binary"

	"wmsn/internal/node"
	"wmsn/internal/sim"
)

// Gateway liveness advertisements back the fault-tolerance path that plain
// SPR/MLR otherwise lack: a crashed gateway silently blackholes every sensor
// whose cached best route points at it. With Params.AdvertInterval set,
// gateways flood a tiny NOTIFY-framed beacon every interval; sensors track
// when each gateway was last heard (adverts, movement notifications and
// fresh route answers all count) and run a periodic sweep that drops routes
// through gateways whose liveness deadline — advertDeadFactor intervals
// after the last proof of life — has passed, then fail over to the
// next-best live entry. The whole mechanism is inert at the default
// AdvertInterval of 0: no timers are armed, no randomness is drawn, and
// unfaulted runs stay byte-identical.

// notifyAdvert is the NOTIFY payload discriminator for liveness
// advertisements, shared by SPR and MLR (mlr.go defines 0 = move,
// 1 = overload).
const notifyAdvert byte = 2

// marshalAdvert encodes an advert: discriminator plus the gateway's current
// feasible place (NoPlace under plain SPR), letting MLR sensors refresh
// their active-place map from the beacon alone.
func marshalAdvert(place int) []byte {
	buf := make([]byte, 3)
	buf[0] = notifyAdvert
	p := uint16(NoPlace)
	if place >= 0 {
		p = uint16(place)
	}
	binary.BigEndian.PutUint16(buf[1:], p)
	return buf
}

// parseAdvert decodes an advert payload; place is -1 under plain SPR.
func parseAdvert(b []byte) (place int, ok bool) {
	if len(b) < 3 || b[0] != notifyAdvert {
		return -1, false
	}
	p := binary.BigEndian.Uint16(b[1:])
	if p == uint16(NoPlace) {
		return -1, true
	}
	return int(p), true
}

// advertDeadFactor times Params.AdvertInterval is the gateway liveness
// timeout: a gateway is presumed dead after missing two adverts.
const advertDeadFactor = 2

// advertTimeout returns the liveness deadline offset.
func (p Params) advertTimeout() sim.Duration { return advertDeadFactor * p.AdvertInterval }

// startAdverts arms the periodic liveness beacon on a gateway device. The
// first advert goes out at a random fraction of the interval so co-located
// gateways do not flood in lockstep; send itself guards device liveness, so
// a crashed gateway falls silent and a recovered one resumes automatically.
func startAdverts(dev *node.Device, interval sim.Duration, send func()) {
	k := dev.World().Kernel()
	phase := sim.Duration(k.Rand().Int63n(int64(interval)))
	k.After(phase, func() {
		send()
		k.Every(interval, send)
	})
}
