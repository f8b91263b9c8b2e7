package router

import (
	"encoding/json"
	"testing"

	"mmtag/internal/net"
)

// FuzzShardTagsMerge feeds the /v1/tags merge arbitrary shard bodies:
// malformed, truncated, duplicate-ID and out-of-range lists. shardTags
// must never panic, and a body it accepts must yield one entry per
// listed tag, each an object carrying its owned ID, in strictly
// ascending order.
func FuzzShardTagsMerge(f *testing.F) {
	for _, body := range []string{
		`{"epoch":7,"config_generation":0,"tags":[{"id":5},{"id":6},{"id":7},{"id":8}]}`,
		`{"epoch":7,"tags":[{"id":5},{"id":6}`,
		`{"tags":[{"id":5},{"id":6},{"id":5}]}`,
		`{"tags":[{"id":4},{"id":9}]}`,
		`{"tags":[{"id":"6"},{"id":7}]}`,
		`{"tags":[null,{"id":6}]}`,
		`{"tags":[{"id":6.5},{"id":-1},{}]}`,
		`{"tags":null}`,
		`[]`,
	} {
		f.Add([]byte(body), 4, 4)
	}
	f.Fuzz(func(t *testing.T, body []byte, base, count int) {
		// Partitions hand out 1-based IDs: no spec owns ID 0, the id an
		// entry without one decodes to.
		if base < 0 || count < 0 || base > 1<<30 || count > 1<<30 {
			return
		}
		spec := net.ShardSpec{Index: 1, Count: 2, TagBase: base, TagCount: count}
		parsed, entries, err := shardTags(spec, body)
		if err != nil {
			return
		}
		if len(entries) != len(parsed.Tags) {
			t.Fatalf("accepted %d of %d listed tags", len(entries), len(parsed.Tags))
		}
		for i, e := range entries {
			if !spec.OwnsTag(e.id) {
				t.Fatalf("entry %d: id %d not owned by %+v", i, e.id, spec)
			}
			if i > 0 && e.id <= entries[i-1].id {
				t.Fatalf("entry %d: id %d after %d", i, e.id, entries[i-1].id)
			}
			var obj struct {
				ID *int `json:"id"`
			}
			if err := json.Unmarshal(e.raw, &obj); err != nil || obj.ID == nil || *obj.ID != e.id {
				t.Fatalf("entry %d: raw %s does not carry id %d", i, e.raw, e.id)
			}
		}
	})
}
