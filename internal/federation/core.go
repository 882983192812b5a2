package federation

import (
	"fmt"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/livecluster"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// routeDriver is what genuinely differs between the analytic model and the
// live router: how a shard's state is read, how a re-placed task reaches its
// new shard, and where the lifecycle spans are recorded.
type routeDriver interface {
	// load reads shard i's load summary at now and whether the router may
	// place new work on it.
	load(i int, now simtime.Instant) (sum livecluster.Summary, placeable bool)
	// handoff submits one re-placed task (a migration or a salvage) to shard
	// s before the core books it; an error declines the re-placement.
	handoff(s int, batch []*task.Task, now simtime.Instant) error
	// notePlaced, noteMigrated and noteDeclined record the route, migrate and
	// route-reject spans.
	notePlaced(t *task.Task, s int, now simtime.Instant)
	noteMigrated(m migration, now simtime.Instant)
	noteDeclined(id task.ID, from int, reason string, now simtime.Instant)
}

// migration is one accepted re-placement and the view it passed the §4.3
// gate against.
type migration struct {
	task     *task.Task
	from, to int
	reason   string
	view     ShardView
}

// detail re-states the §4.3 verdict the sibling passed: RQs + se_lk against
// the slack left at this instant.
func (m migration) detail(now simtime.Instant) string {
	return fmt.Sprintf("from shard %d, reason %s: RQs=%s comm=%s slack=%s",
		m.from, m.reason, m.view.RQs, m.view.Comm, m.task.Deadline.Sub(now))
}

// routeCore is the router's decision logic and books, shared by Simulate
// (called synchronously from the event loop) and Federation (called under
// f.mu): first placement, §4.3-gated migration of rejected tasks, salvage
// off dead shards, and the ledgers every accounting identity is checked
// against. It is not safe for concurrent use.
type routeCore struct {
	d         routeDriver
	tp        Topology
	placement Placement
	migrate   bool
	remote    time.Duration // the communication cost off-replica (the paper's C)
	// routeDetail is the constant route-span detail (no Sprintf per task).
	routeDetail string

	// submitted counts every task handed to a shard (the Submitted
	// tie-break), perShard first placements only. bounces counts each
	// shard's accepted bounces: the router-side ground truth a dead remote
	// shard's synthesized books use in place of its stale last snapshot.
	submitted []int
	perShard  []int
	bounces   []int
	// tried holds, per bounced task, the shards it has visited, so a
	// migration chain visits each shard at most once.
	tried map[task.ID]map[int]bool
	// orig indexes the router's original (global-frame) tasks by ID.
	// Generated workloads use dense IDs 0..n-1, so a slice replaces the map
	// whose per-run refill showed up in setup profiles; out-of-range IDs
	// (hand-built workloads) land in the overflow map.
	orig     []*task.Task
	origOver map[task.ID]*task.Task

	// res is the router's ledger, kept in its reporting form (Shards and
	// Rejoins are the driver's to fill).
	res Result

	// Hot-path scratch: the view snapshot, the cost estimates and shard
	// affinity masks the pick loop hoists, one staging buffer per destination
	// shard, the localized copies they point into (one per task placed), and
	// the copy and single-task buffer of a re-placement. A shard copies each
	// task it is handed, so these live only until the driver's next call.
	views  []ShardView
	ce     []time.Duration
	masks  []affinity.Set
	stage  [][]*task.Task
	local  []task.Task
	one    task.Task
	single []*task.Task
}

// growSlice returns s resized to n zeroed elements, reallocating only when
// the capacity does not suffice.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset configures the core for one run over tasks, keeping its storage.
func (c *routeCore) reset(d routeDriver, tp Topology, p Placement, migrate bool, remote time.Duration, tasks []*task.Task) {
	c.d, c.tp, c.placement, c.migrate, c.remote = d, tp, p, migrate, remote
	c.routeDetail = "policy=" + p.String()
	n := tp.Shards
	c.submitted = growSlice(c.submitted, n)
	c.perShard = growSlice(c.perShard, n)
	c.bounces = growSlice(c.bounces, n)
	c.views = growSlice(c.views, n)
	c.ce = growSlice(c.ce, n)
	c.masks = growSlice(c.masks, n)
	for i := range c.masks {
		c.masks[i] = affinity.Range(i*tp.WorkersPerShard, tp.WorkersPerShard)
	}
	if cap(c.stage) < n {
		c.stage = make([][]*task.Task, n)
	}
	c.stage = c.stage[:n]
	for i := range c.stage {
		c.stage[i] = c.stage[i][:0]
	}
	if c.tried == nil {
		c.tried = make(map[task.ID]map[int]bool)
	} else {
		clear(c.tried)
	}
	c.orig = growSlice(c.orig, len(tasks))
	clear(c.origOver)
	for _, t := range tasks {
		if i := int(t.ID); i >= 0 && i < len(c.orig) {
			c.orig[i] = t
		} else {
			if c.origOver == nil {
				c.origOver = make(map[task.ID]*task.Task)
			}
			c.origOver[t.ID] = t
		}
	}
	c.res = Result{Topology: tp, Placement: p}
}

// original returns the router's original (pre-localization) task with the
// given ID, or nil when the router never placed it.
func (c *routeCore) original(id task.ID) *task.Task {
	if i := int(id); i >= 0 && i < len(c.orig) {
		return c.orig[i]
	}
	return c.origOver[id]
}

// snapshot rebuilds the task-independent part of every shard's view; the
// result is valid until the next call.
func (c *routeCore) snapshot(now simtime.Instant) []ShardView {
	for i := range c.views {
		sum, placeable := c.d.load(i, now)
		rqs := time.Duration(1) << 56 // no alive worker: beyond any deadline
		if sum.MinFree != simtime.Never {
			rqs = simtime.NonNeg(sum.MinFree.Sub(now))
		}
		c.views[i] = ShardView{
			Alive:       sum.Alive,
			Sealed:      sum.Sealed,
			Quarantined: !placeable,
			RQs:         rqs,
			QueuedWork:  sum.QueuedWork,
			Submitted:   c.submitted[i],
		}
	}
	return c.views
}

// place routes one batch of due arrivals against a single snapshot of the
// shard views, staging the localized tasks per destination shard in submit
// order; the driver then submits and empties each stage before the next
// call reuses the copies. The Submitted tie-break advances task by task
// inside the snapshot, so the decisions are bit-identical to per-task
// routing. When no shard is eligible a task still goes to shard 0, which
// bounces or loses it, keeping the books honest.
func (c *routeCore) place(ts []*task.Task, now simtime.Instant) {
	views := c.snapshot(now)
	// The pick loop below is Placement.Pick with its per-task invariants
	// hoisted: CE is evaluated once per snapshot instead of inside every
	// prefers comparison (Submitted updates don't feed it), and the overlap
	// popcount uses the per-run shard masks. It must order candidates exactly
	// like Pick+prefers — the reference the differential tests pin it to.
	ce := c.ce
	for i := range views {
		ce[i] = views[i].CE()
	}
	affFirst := c.placement == AffinityFirst
	c.local = growSlice(c.local, len(ts))
	for k, t := range ts {
		s := -1
		if c.placement == Hashed {
			s = c.placement.Pick(t, views, nil)
		} else {
			bestOv := 0
			for i := range views {
				if !views[i].Eligible() {
					continue
				}
				ov := 0
				if affFirst {
					ov = (t.Affinity & c.masks[i]).Count()
				}
				switch {
				case s < 0:
				case affFirst && ov != bestOv:
					if ov <= bestOv {
						continue
					}
				case ce[i] != ce[s]:
					if ce[i] >= ce[s] {
						continue
					}
				case views[i].Submitted >= views[s].Submitted:
					continue
				}
				s, bestOv = i, ov
			}
		}
		if s < 0 {
			s = 0
		}
		c.res.Routed++
		c.perShard[s]++
		c.submitted[s]++
		views[s].Submitted++
		c.d.notePlaced(t, s, now)
		LocalizeInto(&c.local[k], t, c.tp, s)
		c.stage[s] = append(c.stage[s], &c.local[k])
	}
}

// bounce handles one shard-side rejection: the task is re-offered to the
// best sibling of shard from that it has not visited and that passes the
// §4.3 feasibility test. True transfers ownership (a migration: the sibling
// has it); false hands it back to the rejecting shard to shed or lose
// locally — migration is off, the task is not the router's, no unvisited
// sibling is feasible or the hand-off failed.
func (c *routeCore) bounce(from int, id task.ID, reason string, now simtime.Instant) bool {
	c.res.Bounced++
	g := c.original(id)
	s := -1
	var tried map[int]bool
	if c.migrate && g != nil {
		if tried = c.tried[id]; tried == nil {
			tried = make(map[int]bool, c.tp.Shards)
			c.tried[id] = tried
		}
		tried[from] = true
		views := c.snapshot(now)
		for i := range views {
			views[i].Overlap = c.tp.Overlap(g, i)
			if views[i].Overlap == 0 {
				views[i].Comm = c.remote
			}
		}
		s = c.placement.Pick(g, views, func(i int) bool {
			return i != from && !tried[i] && views[i].Feasible(g, now)
		})
		if s >= 0 {
			LocalizeInto(&c.one, g, c.tp, s)
			c.single = append(c.single[:0], &c.one)
			if c.d.handoff(s, c.single, now) != nil {
				s = -1
			}
		}
	}
	if s < 0 {
		c.res.Rejected++
		c.d.noteDeclined(id, from, reason, now)
		return false
	}
	tried[s] = true
	c.submitted[s]++
	c.bounces[from]++
	c.res.Migrated++
	c.d.noteMigrated(migration{task: g, from: from, to: s, reason: reason, view: c.views[s]}, now)
	return true
}

// salvage re-routes one task off dead shard from through the gate a live
// bounce takes, and is booked as one: a feasible sibling accepts it (a
// salvage — also a migration, so the bounce identities hold unchanged) or it
// is rejected (salvage lost — the dead shard's books charge it lost). Only
// tasks that provably cannot make their deadline anywhere are lost.
func (c *routeCore) salvage(from int, id task.ID, reason string, now simtime.Instant) bool {
	ok := c.bounce(from, id, reason, now)
	if ok {
		c.res.Salvaged++
	} else {
		c.res.SalvageLost++
	}
	return ok
}

// result reports the router's ledger; the driver adds the per-shard results
// and its own lifecycle counts.
func (c *routeCore) result() *Result {
	r := c.res
	r.PerShardRouted = append([]int(nil), c.perShard...)
	return &r
}
