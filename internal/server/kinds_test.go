package server

import (
	"net/http"
	"strings"
	"testing"

	"perfilter"
)

// The kind vocabulary of the create and migrate paths is
// perfilter.KindNames: an unknown kind is rejected with 400 and the error
// enumerates every constructible family, so clients learn the valid names
// from the failure itself.
func TestUnknownKindEnumeratesValidKinds(t *testing.T) {
	ts := newTestServer(t)

	wantKinds := perfilter.KindNames()
	if len(wantKinds) == 0 {
		t.Fatal("KindNames reports no constructible kinds")
	}

	check := func(t *testing.T, body map[string]any) {
		t.Helper()
		msg, _ := body["error"].(string)
		if !strings.Contains(msg, `unknown kind "quotient"`) {
			t.Fatalf("error %q does not name the rejected kind", msg)
		}
		for _, k := range wantKinds {
			if !strings.Contains(msg, k) {
				t.Errorf("error %q does not list registered kind %q", msg, k)
			}
		}
	}

	t.Run("create", func(t *testing.T) {
		body := doJSON(t, "POST", ts.URL+"/v1/filters",
			CreateRequest{Name: "badkind", Kind: "quotient", MBits: 1 << 16},
			http.StatusBadRequest)
		check(t, body)
	})

	t.Run("migrate", func(t *testing.T) {
		doJSON(t, "POST", ts.URL+"/v1/filters",
			CreateRequest{Name: "mig", MBits: 1 << 16}, http.StatusCreated)
		body := doJSON(t, "POST", ts.URL+"/v1/filters/mig/migrate",
			MigrateRequest{Kind: "quotient"}, http.StatusBadRequest)
		check(t, body)
	})
}

// Every family name creates successfully with only its default
// configuration, and the reported kind round-trips through the canonical
// names.
func TestCreateEveryRegisteredKind(t *testing.T) {
	ts := newTestServer(t)
	for _, kind := range perfilter.KindNames() {
		body := doJSON(t, "POST", ts.URL+"/v1/filters",
			CreateRequest{Name: "k-" + kind, Kind: kind, MBits: 1 << 16},
			http.StatusCreated)
		if got, _ := body["kind"].(string); got != kind {
			t.Errorf("create kind %q: reported kind %q", kind, got)
		}
	}
}
