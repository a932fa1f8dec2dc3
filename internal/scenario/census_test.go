package scenario

import (
	"reflect"
	"testing"

	"fairgossip/internal/core"
	"fairgossip/internal/live"
	"fairgossip/internal/transport"
)

// TestOptionsCensus pins the number LINTING.md's options census counts:
// the fields of the six structs a caller configures the system through.
// A new option is a deliberate diff here, with its two callers named in
// the census table; `make loc` prints the count.
func TestOptionsCensus(t *testing.T) {
	const want = 59
	got := 0
	for _, opts := range []any{core.Config{}, core.ControllerSpec{}, live.Config{}, Scenario{}, ShapeSpec{}, transport.Profile{}} {
		got += reflect.TypeOf(opts).NumField()
	}
	t.Logf("options census: %d", got)
	if got != want {
		t.Errorf("%d options, the census in LINTING.md says %d — add the row (or delete the option) and re-pin", got, want)
	}
}
