package router

import (
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"mmtag/internal/net"
	"mmtag/internal/serve"
)

// startRealPair boots one real shard daemon owning a 4-AP, 16-tag
// fleet and a router in front of it, and returns both base URLs.
func startRealPair(tb testing.TB) (routerURL, shardURL string) {
	tb.Helper()
	d, err := serve.Start(serve.Config{
		Addr: "127.0.0.1:0",
		Net: net.Config{
			APs: 4, Tags: 16, Seed: 42,
			Duration: 0.02, Epochs: 2,
		},
		Shard:         net.ShardSpec{Index: 0, Count: 1},
		Workers:       1,
		EpochInterval: 5 * time.Millisecond,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Drain() })
	rt, err := Start(Config{
		Addr:          "127.0.0.1:0",
		Shards:        []string{d.URL()},
		APs:           4,
		Tags:          16,
		ShardTimeout:  2 * time.Second,
		ReloadTimeout: 2 * time.Second,
		ProbeInterval: 50 * time.Millisecond,
		DrainTimeout:  time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt.URL(), d.URL()
}

// tagStatus fetches GET /v1/tags/{token} from base, the token
// path-escaped, and returns the status code.
func tagStatus(tb testing.TB, base, token string) int {
	tb.Helper()
	resp, err := http.Get(base + "/v1/tags/" + url.PathEscape(token))
	if err != nil {
		tb.Fatalf("GET %q: %v", token, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode
}

// TestTagIDParseParity checks that the router and its shard accept and
// reject the same /v1/tags/{id} tokens: both parse with
// net.ParseTagID.
func TestTagIDParseParity(t *testing.T) {
	rURL, sURL := startRealPair(t)
	for _, c := range []struct {
		token string
		want  int
	}{
		{"5", http.StatusOK},
		{"007", http.StatusOK},
		{"+5", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"256", http.StatusBadRequest},
		{" 5", http.StatusBadRequest},
		{"5 ", http.StatusBadRequest},
		{"0x5", http.StatusBadRequest},
		{"200", http.StatusNotFound},
	} {
		shard := tagStatus(t, sURL, c.token)
		routed := tagStatus(t, rURL, c.token)
		if shard != c.want || routed != c.want {
			t.Errorf("token %q: shard %d, router %d, want %d from both", c.token, shard, routed, c.want)
		}
	}
}

// FuzzTagIDParity asserts that the router never answers 200 for a
// /v1/tags/{id} token its shard rejects.
func FuzzTagIDParity(f *testing.F) {
	for _, s := range []string{"5", "007", "+5", "-1", "256", " 5", "16", "0", "1e1", "٣"} {
		f.Add(s)
	}
	rURL, sURL := startRealPair(f)
	f.Fuzz(func(t *testing.T, token string) {
		if token == "" || token == "." || token == ".." {
			return // not a tag path: the mux routes or cleans it first
		}
		shard := tagStatus(t, sURL, token)
		routed := tagStatus(t, rURL, token)
		if routed == http.StatusOK && shard != http.StatusOK {
			t.Fatalf("token %q: router 200, shard %d", token, shard)
		}
	})
}
