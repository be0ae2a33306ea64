package platgen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"pilgrim/internal/g5k"
)

// routeDigests pin every compiled host-pair route of the full Grid'5000
// dataset — link names, directions and latency bits — and the XML export
// of g5k_test. They were computed before route storage moved to index
// form and must never change: a differing digest means some route's link
// order, a direction or a latency sum is no longer what it was.
var routeDigests = map[string]string{
	"g5k_test":         "409673af1261550e0870ba8b8391708087d9d8f613a28aaf827060ea9dbd1108",
	"equipment_limits": "3514bcd813ab2d24f27697d46182b8be085f998c06742477a36a6b46ec162770",
	"flat":             "87866a76cad79c11adebd35518014341e2d07e2cd88ac60c8d33149c68e9336d",
	"g5k_test.xml":     "d5b0ea5fd52446ce61997aaa981ab17fa3fc943fa6ea8be1616408f3cb3f305e",
}

// TestRouteDigestsG5K hashes, for every ordered host pair of g5k.Default()
// under three generator options, the route the compiled snapshot serves,
// and the XML export of the default platform, against digests committed
// from an independent implementation of the route tables.
func TestRouteDigestsG5K(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves every host pair of the full dataset three times")
	}
	flavours := []struct {
		name string
		opts Options
	}{
		{"g5k_test", Options{Variant: G5KTest}},
		{"equipment_limits", Options{Variant: G5KTest, EquipmentLimits: true}},
		{"flat", Options{Variant: G5KTest, Flat: true}},
	}
	for _, f := range flavours {
		p, err := Generate(g5k.Default(), f.opts)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Compile()
		h := sha256.New()
		var buf [8]byte
		hosts := p.Hosts()
		for _, a := range hosts {
			for _, b := range hosts {
				if a == b {
					continue
				}
				r, err := s.Route(a.ID, b.ID)
				if err != nil {
					t.Fatalf("%s %s->%s: %v", f.name, a.ID, b.ID, err)
				}
				writeField(h, a.ID)
				writeField(h, b.ID)
				for _, ref := range r.Refs {
					writeField(h, s.LinkName(ref.LinkIndex()))
					h.Write([]byte{byte(ref.Direction())})
				}
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Latency))
				h.Write(buf[:])
			}
		}
		checkDigest(t, f.name, h)

		if f.name == "g5k_test" {
			x := sha256.New()
			if err := p.WriteXML(x); err != nil {
				t.Fatal(err)
			}
			checkDigest(t, "g5k_test.xml", x)
		}
	}
}

func writeField(h hash.Hash, s string) {
	h.Write([]byte(s))
	h.Write([]byte{0})
}

func checkDigest(t *testing.T, name string, h hash.Hash) {
	t.Helper()
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != routeDigests[name] {
		t.Errorf("%s: digest %s, want %s", name, got, routeDigests[name])
	}
}
