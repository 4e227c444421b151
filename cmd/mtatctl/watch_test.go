package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tieredmem/mtat/internal/cluster"
	"github.com/tieredmem/mtat/internal/server"
)

// TestDefinitiveErr drives real run and sweep stream opens against a
// daemon stub answering each status: a 4xx the daemon means (unknown
// ID, bad auth) ends the watch, while timeouts, backpressure, 5xx and
// transport failures are outages worth reconnecting through.
func TestDefinitiveErr(t *testing.T) {
	openers := map[string]func(addr string) error{
		"run": func(addr string) error {
			_, err := server.NewClient(addr).StreamEvents(context.Background(), "r000001", "")
			return err
		},
		"sweep": func(addr string) error {
			_, err := cluster.NewClient(addr).StreamEvents(context.Background(), "s000001", "")
			return err
		},
	}
	for _, tc := range []struct {
		code       int // 0: the daemon is down
		definitive bool
	}{
		{http.StatusNotFound, true},
		{http.StatusForbidden, true},
		{http.StatusRequestTimeout, false},
		{http.StatusTooManyRequests, false},
		{http.StatusInternalServerError, false},
		{http.StatusBadGateway, false},
		{http.StatusServiceUnavailable, false},
		{0, false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(tc.code)
			fmt.Fprintf(w, `{"error": %q}`, http.StatusText(tc.code))
		}))
		if tc.code == 0 {
			srv.Close()
		} else {
			defer srv.Close()
		}
		for stream, open := range openers {
			err := open(srv.URL)
			if err == nil {
				t.Fatalf("%s stream, HTTP %d: open succeeded", stream, tc.code)
			}
			if got := definitiveErr(err); got != tc.definitive {
				t.Errorf("%s stream, HTTP %d (%v): definitive = %v, want %v",
					stream, tc.code, err, got, tc.definitive)
			}
		}
	}
	if definitiveErr(nil) {
		t.Error("nil error is definitive")
	}
}
