package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/stats"
)

// canonRule is a rule keyed by item names instead of catalog ids, so rule
// sets mined against different catalogs (a shard merge interns names in a
// different order than a single miner) compare structurally.
type canonRule struct {
	key        string
	count      int
	support    float64
	confidence float64
	lift       float64
	leverage   float64
	conviction float64
}

func canonicalize(rs []rules.Rule, cat *itemset.Catalog) []canonRule {
	out := make([]canonRule, len(rs))
	for i, r := range rs {
		a := cat.Names(r.Antecedent)
		sort.Strings(a)
		cons := cat.Names(r.Consequent)
		sort.Strings(cons)
		out[i] = canonRule{
			key:        strings.Join(a, ",") + "=>" + strings.Join(cons, ","),
			count:      r.Count,
			support:    r.Support,
			confidence: r.Confidence,
			lift:       r.Lift,
			leverage:   r.Leverage,
			conviction: r.Conviction,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// genEvents fabricates a correlated categorical trace: the shape tends to
// follow the color and tenants are skewed, so frequent itemsets and rules
// exist at every tested support level.
func genEvents(g *stats.RNG, n int) []server.Event {
	colors := []string{"red", "blue", "green"}
	shapes := []string{"circle", "square", "triangle"}
	sizes := []string{"s", "m", "l"}
	events := make([]server.Event, n)
	for i := range events {
		ci := g.Intn(len(colors))
		ev := server.Event{
			"tenant": fmt.Sprintf("t%d", g.Intn(1+g.Intn(8))),
			"color":  colors[ci],
		}
		// 70%: shape correlates with color; otherwise independent.
		if g.Float64() < 0.7 {
			ev["shape"] = shapes[ci]
		} else {
			ev["shape"] = shapes[g.Intn(len(shapes))]
		}
		if g.Float64() < 0.5 {
			ev["size"] = sizes[g.Intn(len(sizes))]
		}
		events[i] = ev
	}
	return events
}

// The acceptance property: for any event stream, any shard count and any
// threshold set, the cluster's merged /v1/rules equals — rule for rule,
// metric for metric — what one miner over the union window produces.
// Randomized across 25 seeds, shard counts 1, 2 and 4, and two threshold
// sets: the defaults, and a non-default MaxLen and MinLift set on both the
// oracle and the cluster.
//
// The serving config is categorical-only on purpose: per-shard encoders fit
// numeric bins on per-shard bootstrap samples, so numeric specs make shard
// encoding (correctly) diverge from a single miner's — the equivalence the
// merge guarantees is over transactions, not over encoder fitting.
func TestMergedEqualsSingleMinerOracle(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	thresholds := []struct {
		name    string
		maxLen  int
		minLift float64
	}{
		{name: "defaults"},
		{name: "maxlen2-lift1.2", maxLen: 2, minLift: 1.2},
	}
	const seeds = 25
	for _, th := range thresholds {
		cfg := testShardConfig()
		cfg.MaxLen, cfg.MinLift = th.maxLen, th.minLift
		for seed := 0; seed < seeds; seed++ {
			g := stats.NewRNG(int64(1000 + seed))
			events := genEvents(g, 80+g.Intn(80))

			oracle, err := server.New(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: oracle: %v", th.name, seed, err)
			}
			for _, ev := range events {
				if err := oracle.Enqueue(ev); err != nil {
					t.Fatalf("%s seed %d: oracle enqueue: %v", th.name, seed, err)
				}
			}
			if err := oracle.Stop(ctx); err != nil {
				t.Fatalf("%s seed %d: oracle stop: %v", th.name, seed, err)
			}
			osnap := oracle.Snapshot()
			if osnap == nil {
				t.Fatalf("%s seed %d: oracle mined nothing", th.name, seed)
			}
			want := canonicalize(osnap.View.Rules, osnap.View.Catalog)

			for _, shards := range []int{1, 2, 4} {
				c, err := New(Config{Shards: shards, Shard: cfg})
				if err != nil {
					t.Fatalf("%s seed %d shards %d: New: %v", th.name, seed, shards, err)
				}
				for _, ev := range events {
					if err := c.Ingest(ev); err != nil {
						t.Fatalf("%s seed %d shards %d: ingest: %v", th.name, seed, shards, err)
					}
				}
				if err := c.Stop(ctx); err != nil {
					t.Fatalf("%s seed %d shards %d: stop: %v", th.name, seed, shards, err)
				}
				snap, _ := c.Merged()
				if snap == nil {
					t.Fatalf("%s seed %d shards %d: merged nothing", th.name, seed, shards)
				}
				if snap.View.WindowLen != osnap.View.WindowLen {
					t.Fatalf("%s seed %d shards %d: merged window %d, oracle %d",
						th.name, seed, shards, snap.View.WindowLen, osnap.View.WindowLen)
				}
				got := canonicalize(snap.View.Rules, snap.View.Catalog)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d shards %d: %d merged rules, oracle has %d",
						th.name, seed, shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d shards %d: rule %d diverges:\n merged %+v\n oracle %+v",
							th.name, seed, shards, i, got[i], want[i])
					}
				}
			}
		}
	}
}
