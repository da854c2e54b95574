package core

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Dependency-scope locking (the graph level of Section 4.2, sharded).
//
// Instead of one graph-wide structural mutex, the registries of an Env
// are partitioned into connected components of the dependency relation:
// two registries share a component once a metadata dependency edge (or
// an attach/detach of a module that metadata links) has connected them.
// Each component carries its own structural lock, so structural
// operations on unrelated parts of the query graph — subscription,
// unsubscription, trigger propagation, event firing, introspection —
// proceed in parallel. This realizes the paper's "only the locks
// involved in the currently included items are used" at the graph
// level.
//
// The partition is a union-find forest maintained incrementally: a
// Registry embeds its node, a singleton component of its own, and the
// inclusion traversal merges the components of two registries the
// moment it creates a dependency edge between them. Components only
// merge (a conservative over-approximation: unsubscribing the last
// cross-registry edge does not split them), which is what makes the
// locking protocol below terminate. Parent pointers point into the
// root's registry, which thus stays alive, slot table and all, while
// any registry of its component does (no non-test code drops one).
//
// find is lock-free: parent pointers are atomic, path compression uses
// benign CAS. A root can only gain a parent (lose root-hood) while its
// component lock is held — lockScope relies on this to validate its
// lock set.

// component is one union-find node. Roots (parent == nil) carry the
// live structural lock of their component.
type component struct {
	// mu is the component's structural lock; meaningful at roots.
	mu sync.Mutex
	// id orders lock acquisition deterministically (creation order).
	id int64
	// parent is nil at a root; set once when the component merges into
	// another, only while both roots' locks are held.
	parent atomic.Pointer[component]

	// scratch is the propagation-plan cache, its structural version and
	// reusable scratch space (see plan.go), nil until the root first
	// propagates. Guarded by mu and meaningful at roots.
	scratch *planScratch
}

// find returns the root of c's component, compressing the path. It is
// lock-free; the result may be stale the moment it returns unless the
// caller holds the root's lock (see lockScope validation).
func find(c *component) *component {
	root := c
	for {
		p := root.parent.Load()
		if p == nil {
			break
		}
		root = p
	}
	// Path compression: point traversed nodes at the root. CAS failures
	// mean someone else compressed further; both outcomes are fine.
	for c != root {
		p := c.parent.Load()
		if p == nil || p == root {
			break
		}
		c.parent.CompareAndSwap(p, root)
		c = p
	}
	return root
}

// union merges the components rooted at a and b; the caller must hold
// both roots' locks. The root with the smaller id wins, so component
// ids (and hence lock order) stay stable as components coarsen.
func union(a, b *component) *component {
	if a == b {
		return a
	}
	if a.id > b.id {
		a, b = b, a
	}
	b.parent.Store(a)
	// The merged component has new structure; cached propagation plans
	// of both halves are stale. The loser can never be consulted again
	// (it is no longer a root), so clearing it just releases memory.
	a.bumpStructLocked()
	b.scratch = nil
	return a
}

// scope is a set of locked components covering one structural
// operation. While a scope is held, no registry inside it can move to
// a component outside it and no outside registry can join it, because
// either would require the merging operation to hold a lock the scope
// owns.
// scope is returned by value and lives on the caller's stack: taking a
// component lock must not cost a heap allocation on the hot
// single-registry path. Small root sets sit in the inline array;
// larger ones (rare multi-registry operations) spill to extra.
type scope struct {
	n      int // roots in inline (0 when extra is used)
	inline [2]*component
	extra  []*component
}

// roots returns the locked roots in ascending id order.
func (s *scope) roots() []*component {
	if s.extra != nil {
		return s.extra
	}
	return s.inline[:s.n]
}

// lockScope locks the components covering regs. Locks are taken in
// ascending component-id order — the deterministic cross-component
// ordering rule — and the covering set is revalidated after
// acquisition, since a concurrent merge may have changed it between
// find and lock. The retry loop terminates because components only
// merge: every retry sees the same or fewer distinct roots.
func (e *Env) lockScope(regs ...*Registry) scope {
	// Fast path: a single registry needs a single root — no dedup, no
	// sort, no allocation. This is the overwhelmingly common case
	// (every structural operation confined to one node's dependency
	// scope).
	if len(regs) == 1 {
		for {
			root := find(&regs[0].comp)
			root.mu.Lock()
			if find(&regs[0].comp) == root {
				return scope{n: 1, inline: [2]*component{root}}
			}
			root.mu.Unlock()
		}
	}
	for {
		roots := make([]*component, 0, len(regs))
		for _, r := range regs {
			root := find(&r.comp)
			dup := false
			for _, c := range roots {
				if c == root {
					dup = true
					break
				}
			}
			if !dup {
				roots = append(roots, root)
			}
		}
		sort.Slice(roots, func(i, j int) bool { return roots[i].id < roots[j].id })
		for _, c := range roots {
			c.mu.Lock()
		}
		ok := true
		for _, r := range regs {
			if !rootsContain(roots, find(&r.comp)) {
				ok = false
				break
			}
		}
		if ok {
			return scope{extra: roots}
		}
		for i := len(roots) - 1; i >= 0; i-- {
			roots[i].mu.Unlock()
		}
	}
}

// covers reports whether r's component is locked by this scope. The
// answer is stable for the lifetime of the scope (merges into or out
// of a held component are impossible).
func (s *scope) covers(r *Registry) bool {
	return rootsContain(s.roots(), find(&r.comp))
}

// mergeLocked unions the components of a and b, both of which must be
// covered by the scope. Called when the inclusion traversal creates a
// dependency edge between registries of different components.
func (s *scope) mergeLocked(a, b *Registry) {
	union(find(&a.comp), find(&b.comp))
}

// unlock releases every component lock of the scope.
func (s *scope) unlock() {
	roots := s.roots()
	for i := len(roots) - 1; i >= 0; i-- {
		roots[i].mu.Unlock()
	}
}

func rootsContain(roots []*component, c *component) bool {
	for _, r := range roots {
		if r == c {
			return true
		}
	}
	return false
}
