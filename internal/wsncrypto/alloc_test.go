//go:build !race

// The race detector allocates for its own bookkeeping, so the pins are not
// built under -race.

package wsncrypto

import "testing"

var (
	sinkBytes []byte
	sinkBool  bool
	sinkKey   Key
)

// TestPrimitiveAllocsPinned pins the heap allocations of one call of each
// primitive on inputs of up to 512 bytes: none for Verify, DeriveKey and a
// TESLA key check, and one, the result, for Sum, Encrypt and Decrypt. A
// slice handed to an interface method escapes to the heap, so an HMAC fed
// through hash.Hash's Write, or a keystream block on the stack handed to
// cipher.Block's Encrypt, shows here as an extra allocation per call.
func TestPrimitiveAllocsPinned(t *testing.T) {
	k := DeriveKey(master, 1, 100)
	pair := NewPairKey(k)
	pin := func(name string, n int, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(100, f); got != want {
			t.Errorf("%s on %d bytes: %v allocations per call, want %v", name, n, got, want)
		}
	}
	for _, n := range []int{1, 15, 16, 17, 100, 504, 505, 512} {
		data := make([]byte, n)
		tag := Sum(k, 7, data)
		pin("Verify", n, 0, func() { sinkBool = Verify(k, 7, data, tag) })
		pin("Sum", n, 1, func() { sinkBytes = Sum(k, 7, data) })
		pin("Encrypt", n, 1, func() { sinkBytes = Encrypt(pair.Block, 7, data) })
		pin("Decrypt", n, 1, func() { sinkBytes = Decrypt(pair.Block, 7, data) })
		pin("DeriveKey", n, 0, func() { sinkKey = DeriveKey(data, 1, 100) })
	}
	chain := NewTeslaChain([]byte("gw"), 8)
	base := *NewTeslaVerifier(chain.Commitment())
	disclosed := chain.KeyAt(8)
	pin("TeslaVerifier.AcceptKey", KeySize, 0, func() {
		v := base
		sinkBool = v.AcceptKey(8, disclosed)
	})
	if !sinkBool {
		t.Fatal("AcceptKey refused the chain's own key")
	}
}
