package node

import (
	"testing"

	"wmsn/internal/geom"
	"wmsn/internal/packet"
)

// TestKillRecoverRoundTrip pins the attachSnapshot contract: everything a
// kill tears down — station attachments, position, ranges, the sensor
// listening flag — comes back exactly on Recover, the device stays an
// eavesdropper, and the revived device both receives and transmits again.
func TestKillRecoverRoundTrip(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	gwStack := &echoStack{}
	gw := w.AddGateway(100, geom.Point{X: 20}, 30, 150, gwStack)
	peer := &echoStack{}
	w.AddSensor(1, geom.Point{X: 10}, 30, 0, peer)
	bs := w.AddBaseStation(200, geom.Point{X: 60}, 150)
	meshGot := 0
	bs.SetMeshHandler(func(*packet.Packet) { meshGot++ })

	gw.SetPromiscuous(true)
	gw.SensorStation().SetListening(false) // a deliberately non-default flag
	wantPos := gw.Pos()
	wantSensorRange := gw.SensorStation().Range()
	wantMeshRange := gw.MeshStation().Range()

	gw.Fail()
	if gw.Alive() {
		t.Fatal("gateway alive after Fail")
	}
	if gw.SensorStation() != nil || gw.MeshStation() != nil {
		t.Fatal("stations not detached by kill")
	}
	if gw.SendMesh(bcast(100)) {
		t.Fatal("dead gateway transmitted on the mesh")
	}

	if !gw.Recover() {
		t.Fatal("Recover returned false for a dead device")
	}
	if gw.Recover() {
		t.Fatal("Recover on an alive device should be a no-op")
	}
	if !gw.Alive() {
		t.Fatal("gateway not alive after Recover")
	}
	if got := gw.Pos(); got != wantPos {
		t.Fatalf("position after recover = %v, want %v", got, wantPos)
	}
	st, ms := gw.SensorStation(), gw.MeshStation()
	if st == nil || ms == nil {
		t.Fatal("stations not re-attached by Recover")
	}
	if st.Range() != wantSensorRange || ms.Range() != wantMeshRange {
		t.Fatalf("ranges after recover = %g/%g, want %g/%g",
			st.Range(), ms.Range(), wantSensorRange, wantMeshRange)
	}
	if st.Listening() {
		t.Fatal("sensor listening flag not restored (was off at death)")
	}
	if !gw.Promiscuous() {
		t.Fatal("promiscuous bit lost across kill and recover")
	}

	// The revived gateway transmits on the mesh again...
	if !gw.SendMesh(bcast(100)) {
		t.Fatal("recovered gateway could not transmit on the mesh")
	}
	w.RunUntilIdle()
	if meshGot != 1 {
		t.Fatalf("base station heard %d mesh packets from recovered gateway, want 1", meshGot)
	}
	// ...and hears the mesh again (its sensor ear was left off by design).
	before := len(gwStack.got)
	w.Device(1).Send(bcast(1))
	w.RunUntilIdle()
	if len(gwStack.got) != before {
		t.Fatal("non-listening recovered station still delivered a sensor frame")
	}
	// ...and, with its sensor ear back on, still eavesdrops: a unicast
	// addressed to another node reaches its stack.
	st.SetListening(true)
	foreign := bcast(1)
	foreign.To = 2
	w.Device(1).Send(foreign)
	w.RunUntilIdle()
	if len(gwStack.got) != before+1 || gwStack.got[before].To != 2 {
		t.Fatal("recovered promiscuous gateway did not hand a foreign unicast to its stack")
	}
}

// TestKillRecoverSensorCounts checks the world-level bookkeeping around the
// snapshot round trip for battery-backed sensors.
func TestKillRecoverSensorCounts(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	s := w.AddSensor(1, geom.Point{}, 30, 0, &echoStack{})
	w.AddSensor(2, geom.Point{X: 5}, 30, 0, &echoStack{})
	if w.SensorsAlive() != 2 {
		t.Fatalf("SensorsAlive = %d, want 2", w.SensorsAlive())
	}
	s.Fail()
	if w.SensorsAlive() != 1 {
		t.Fatalf("SensorsAlive after kill = %d, want 1", w.SensorsAlive())
	}
	if !s.Recover() {
		t.Fatal("Recover failed")
	}
	if w.SensorsAlive() != 2 {
		t.Fatalf("SensorsAlive after recover = %d, want 2", w.SensorsAlive())
	}
	// The death record survives recovery (lifetime bookkeeping is history,
	// not state).
	if len(w.Deaths()) != 1 {
		t.Fatalf("deaths = %+v, want the one kill on record", w.Deaths())
	}
}
