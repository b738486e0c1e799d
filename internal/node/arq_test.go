package node

import (
	"fmt"
	"math/rand"
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/metrics"
	"wmsn/internal/packet"
	"wmsn/internal/radio"
	"wmsn/internal/sim"
)

// arqStack records delivered data frames and link-failure verdicts.
type arqStack struct {
	dev   *Device
	got   []*packet.Packet
	fails []*packet.Packet
}

func (s *arqStack) Start(dev *Device)              { s.dev = dev }
func (s *arqStack) HandleMessage(p *packet.Packet) { s.got = append(s.got, p) }
func (s *arqStack) HandleLinkFailure(p *packet.Packet) {
	s.fails = append(s.fails, p)
}

func dataTo(from, to packet.NodeID, seq uint32) *packet.Packet {
	return &packet.Packet{Kind: packet.KindData, From: from, To: to,
		Origin: from, Target: to, Seq: seq, TTL: 8, Payload: []byte("x")}
}

func arqWorld(t *testing.T, lossRate float64, cfg ARQConfig) (*World, *Device, *Device, *arqStack, *arqStack) {
	t.Helper()
	w := NewWorld(Config{Seed: 7, SensorRadio: radio.Config{BitRate: 250e3, LossRate: lossRate}})
	sa, sb := &arqStack{}, &arqStack{}
	da := w.AddSensor(1, geom.Point{}, 30, 0, sa)
	db := w.AddSensor(2, geom.Point{X: 10}, 30, 0, sb)
	da.EnableLinkARQ(cfg)
	db.EnableLinkARQ(cfg)
	return w, da, db, sa, sb
}

func TestARQDeliversAndAcks(t *testing.T) {
	m := metrics.New()
	w, da, db, _, sb := arqWorld(t, 0, ARQConfig{Retries: 3, AckWait: 10 * sim.Millisecond, Metrics: m})
	if !da.Send(dataTo(1, 2, 1)) {
		t.Fatal("Send failed")
	}
	w.RunUntilIdle()
	if len(sb.got) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(sb.got))
	}
	if m.LinkTxQueued != 1 || m.LinkAcked != 1 || m.LinkAckSent != 1 {
		t.Fatalf("counters queued=%d acked=%d ackSent=%d, want 1/1/1",
			m.LinkTxQueued, m.LinkAcked, m.LinkAckSent)
	}
	if m.LinkRetries != 0 || m.LinkFailures != 0 {
		t.Fatalf("clean link produced retries=%d failures=%d", m.LinkRetries, m.LinkFailures)
	}
	if da.LinkQueueLen() != 0 || db.LinkQueueLen() != 0 {
		t.Fatal("queues did not drain")
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

func TestARQRetryBudgetAndFailureVerdict(t *testing.T) {
	m := metrics.New()
	cfg := ARQConfig{Retries: 3, AckWait: 10 * sim.Millisecond, Metrics: m}
	w := NewWorld(Config{Seed: 7, SensorRadio: radio.Config{BitRate: 250e3}})
	sa := &arqStack{}
	da := w.AddSensor(1, geom.Point{}, 30, 0, sa)
	da.EnableLinkARQ(cfg)
	// Node 9 does not exist: no ACK can ever come back.
	if !da.Send(dataTo(1, 9, 1)) {
		t.Fatal("Send failed")
	}
	w.RunUntilIdle()
	if tx := w.SensorMedium().Stats().Transmissions; tx != uint64(cfg.Retries)+1 {
		t.Fatalf("sender transmitted %d times, want exactly retries+1 = %d",
			tx, cfg.Retries+1)
	}
	if m.LinkRetries != uint64(cfg.Retries) || m.LinkFailures != 1 {
		t.Fatalf("retries=%d failures=%d, want %d/1", m.LinkRetries, m.LinkFailures, cfg.Retries)
	}
	if len(sa.fails) != 1 || sa.fails[0].To != 9 || sa.fails[0].Seq != 1 {
		t.Fatalf("link-failure handler got %v, want the retired frame to node 9", sa.fails)
	}
	if w.LinkStuckTimers() != 0 {
		t.Fatal("stuck retransmit timer after exhaustion")
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

func TestARQRecoversFromLostAcks(t *testing.T) {
	m := metrics.New()
	w, da, _, _, sb := arqWorld(t, 0, ARQConfig{Retries: 4, AckWait: 10 * sim.Millisecond, Metrics: m})
	// The sender hears nothing at all: every ACK is lost, the receiver sees
	// each retransmission, re-ACKs it, and must deliver the frame to its
	// stack exactly once.
	w.SensorMedium().Station(1).SetRxLoss(0.999999)
	da.Send(dataTo(1, 2, 1))
	w.RunUntilIdle()
	if len(sb.got) != 1 {
		t.Fatalf("receiver stack saw %d frames, want exactly 1 (duplicates suppressed)", len(sb.got))
	}
	if m.LinkAckSent != 5 {
		t.Fatalf("receiver sent %d ACKs, want one per transmission (5)", m.LinkAckSent)
	}
	if m.LinkFailures != 1 {
		t.Fatalf("failures=%d, want 1 (sender never heard an ACK)", m.LinkFailures)
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

func TestARQDedupeExpiresForEndToEndResends(t *testing.T) {
	m := metrics.New()
	cfg := ARQConfig{Retries: 2, AckWait: 10 * sim.Millisecond, Metrics: m}
	w, da, _, _, sb := arqWorld(t, 0, cfg)
	da.Send(dataTo(1, 2, 1))
	w.RunUntilIdle()
	// A later end-to-end resend reuses (origin, seq) — e.g. SecMLR failover
	// after its AckWait — and must pass once the dedupe window has expired.
	var span sim.Duration
	for i := 0; i <= cfg.Retries; i++ {
		span += radio.RetryBackoff(cfg.AckWait, i)
	}
	w.Kernel().After(span+10*sim.Millisecond, func() {
		da.Send(dataTo(1, 2, 1))
	})
	w.RunUntilIdle()
	if len(sb.got) != 2 {
		t.Fatalf("receiver stack saw %d frames, want 2 (dedupe entry expired)", len(sb.got))
	}
}

func TestARQQueueBoundAndBackpressure(t *testing.T) {
	m := metrics.New()
	cfg := ARQConfig{Retries: 1, AckWait: 10 * sim.Millisecond, QueueLimit: 2, Metrics: m}
	w := NewWorld(Config{Seed: 7, SensorRadio: radio.Config{BitRate: 250e3}})
	da := w.AddSensor(1, geom.Point{}, 30, 0, &arqStack{})
	da.EnableLinkARQ(cfg)
	accepted := 0
	for i := uint32(1); i <= 5; i++ {
		if da.Send(dataTo(1, 9, i)) {
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("queue of 2 accepted %d frames", accepted)
	}
	if m.QueueDrops != 3 {
		t.Fatalf("QueueDrops=%d, want 3", m.QueueDrops)
	}
	if da.LinkQueueLen() != 2 {
		t.Fatalf("queue length %d, want 2", da.LinkQueueLen())
	}
	w.RunUntilIdle()
	if m.LinkFailures != 2 || da.LinkQueueLen() != 0 {
		t.Fatalf("failures=%d queueLen=%d after drain, want 2/0", m.LinkFailures, da.LinkQueueLen())
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

func TestARQFlushOnDeath(t *testing.T) {
	m := metrics.New()
	w := NewWorld(Config{Seed: 7, SensorRadio: radio.Config{BitRate: 250e3}})
	da := w.AddSensor(1, geom.Point{}, 30, 0, &arqStack{})
	da.EnableLinkARQ(ARQConfig{Retries: 3, AckWait: 10 * sim.Millisecond, Metrics: m})
	for i := uint32(1); i <= 3; i++ {
		da.Send(dataTo(1, 9, i))
	}
	da.Fail()
	if da.LinkQueueLen() != 0 {
		t.Fatal("kill did not flush the forwarding queue")
	}
	if m.LinkFlushed != 3 {
		t.Fatalf("LinkFlushed=%d, want 3", m.LinkFlushed)
	}
	w.RunUntilIdle() // any stray timer event must be a no-op
	if w.LinkStuckTimers() != 0 {
		t.Fatal("stuck timer on a dead device")
	}
	if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
		t.Fatal(err)
	}
}

func TestLinkConservationDetectsImbalance(t *testing.T) {
	m := metrics.New()
	m.LinkTxQueued = 10
	m.LinkAcked = 6
	m.LinkFailures = 1
	if err := m.CheckLinkConservation(2); err == nil {
		t.Fatal("ledger 10 != 6+1+0+2 not flagged")
	}
	m.LinkFlushed = 1
	if err := m.CheckLinkConservation(2); err != nil {
		t.Fatalf("balanced ledger flagged: %v", err)
	}
}

// TestARQPropertyRandomLoss drives the retransmit machine through seeded
// random loss/timing regimes and asserts its invariants in every one:
// per-frame transmissions never exceed 1+Retries, the conservation ledger
// balances, queues drain, no retransmit timer survives without a frame in
// flight, and the receiver's stack never sees a link-layer duplicate.
func TestARQPropertyRandomLoss(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			retries := 1 + rng.Intn(5)
			loss := rng.Float64() * 0.6
			frames := 1 + rng.Intn(12)
			m := metrics.New()
			cfg := ARQConfig{Retries: retries, AckWait: 5 * sim.Millisecond,
				QueueLimit: 4 + rng.Intn(12), Metrics: m}
			w, da, _, _, sb := arqWorld(t, loss, cfg)
			queued := uint64(0)
			for i := 0; i < frames; i++ {
				if da.Send(dataTo(1, 2, uint32(i+1))) {
					queued++
				}
			}
			w.RunUntilIdle()
			// The receiver's LINK-ACKs share the medium, so the sender's
			// transmissions are its first attempts plus its retries.
			if tx := m.LinkTxQueued + m.LinkRetries; tx > queued*uint64(retries+1) {
				t.Fatalf("sender transmitted %d frames for %d queued with budget %d each",
					tx, queued, retries+1)
			}
			if m.LinkTxQueued != queued {
				t.Fatalf("LinkTxQueued=%d, want %d", m.LinkTxQueued, queued)
			}
			if err := m.CheckLinkConservation(w.LinkQueueDepth()); err != nil {
				t.Fatal(err)
			}
			if w.LinkQueueDepth() != 0 {
				t.Fatalf("queues did not drain: %d frames stranded", w.LinkQueueDepth())
			}
			if w.LinkStuckTimers() != 0 {
				t.Fatal("stuck retransmit timer")
			}
			if uint64(len(sb.got)) > queued {
				t.Fatalf("receiver stack saw %d frames for %d sent — duplicate leaked", len(sb.got), queued)
			}
			if uint64(len(sb.got)) != m.LinkAcked {
				// Every frame the receiver's stack saw was the first copy of
				// an eventually-ACKed exchange, and vice versa — except when
				// the sender gave up after the receiver already got the data
				// (ACKs lost), so acked <= seen always holds.
				if m.LinkAcked > uint64(len(sb.got)) {
					t.Fatalf("acked=%d > delivered-to-stack=%d", m.LinkAcked, len(sb.got))
				}
			}
		})
	}
}
