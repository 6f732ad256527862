package overlay

import (
	"sort"
	"sync"
)

// Entry is one record of the attachment directory: which relay of the
// mesh a node is attached to ("home"), at which version. Versions are
// per-node logical clocks: every attach or detach observed by a relay
// bumps the node's version past everything that relay has heard of, so
// the record of a node that reattached elsewhere always overrides the
// stale one, no matter in which order gossip arrives.
type Entry struct {
	// Node is the location-independent node ID.
	Node string
	// Home is the ID of the relay the node is attached to. For absent
	// entries it names the relay that recorded the departure.
	Home string
	// Version is the node's logical clock.
	Version uint64
	// Present is false once the node detached (tombstone).
	Present bool
}

// directory is a relay's view of the mesh-wide attachment map.
type directory struct {
	// self is the owning relay's mesh ID: the relay is the sole
	// authority for attachments homed at itself (only localUpdate and
	// localDetach may retract them; see merge).
	self string

	mu      sync.Mutex
	entries map[string]Entry
}

func newDirectory(self string) *directory {
	return &directory{self: self, entries: make(map[string]Entry)}
}

// size reports the number of directory records, tombstones included.
func (d *directory) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// localUpdate records a local attach (present) or detach (!present) and
// returns the resulting entry for gossiping.
func (d *directory) localUpdate(node, home string, present bool) Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := Entry{Node: node, Home: home, Version: d.entries[node].Version + 1, Present: present}
	d.entries[node] = e
	return e
}

// localDetach records a local detach, but only while the directory still
// names this relay as the node's home. If the node has already resumed
// elsewhere (the new home's attach gossip beat the detach), tombstoning
// here would kill the valid route mesh-wide, so the detach is a no-op.
// It returns the tombstone to gossip and whether one was produced.
func (d *directory) localDetach(node, home string) (Entry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.entries[node]
	if ok && (!cur.Present || cur.Home != home) {
		return Entry{}, false
	}
	e := Entry{Node: node, Home: home, Version: cur.Version + 1, Present: false}
	d.entries[node] = e
	return e, true
}

// merge applies a gossiped entry and reports whether it was adopted.
//
// The rules are authority-scoped: a tombstone asserts only "the node is
// not attached at MY relay", so it can never retract a presence record
// homed elsewhere — no matter its version, which may race ahead of the
// new home's by exactly the gossip in flight during a failover.
// Conversely a presence claim overrides a foreign tombstone: a wrong
// presence is self-correcting (forwarding to it draws a NACK that
// repairs the route), while a wrong absence is a dead end until the
// node's next attach. Within the same home, and between records of the
// same presence state, plain version order decides, with the
// lexicographically larger home as the deterministic tie-break.
func (d *directory) merge(e Entry) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur, ok := d.entries[e.Node]
	if ok {
		switch {
		case e.Present && !cur.Present:
			// A presence claim beats any foreign tombstone; the same
			// home's own newer retraction stands. At equal versions the
			// presence wins: a home bumps the version on every real
			// detach, so an equal-version tombstone can only stem from a
			// local invalidate/dropRelay repair — and the home re-claiming
			// the node (its snapshot after a transient peer-link drop)
			// proves that repair was itself stale.
			if cur.Home == e.Home && cur.Version > e.Version {
				return false
			}
		case !e.Present && cur.Present:
			// A tombstone only retracts its own relay's attachment, and
			// only with a strictly newer version: a genuine detach always
			// bumps past the presence it retracts, so an equal-version
			// tombstone is some relay's non-bumped repair artifact
			// (invalidate/dropRelay after a link loss) echoed through a
			// snapshot — adopting it would kill a live route that no
			// future delta will ever re-announce. For locally homed nodes
			// only localUpdate/localDetach are authoritative, whatever
			// the version.
			if cur.Home != e.Home || e.Version <= cur.Version || cur.Home == d.self {
				return false
			}
		default:
			if e.Version < cur.Version {
				return false
			}
			if e.Version == cur.Version && e.Home <= cur.Home {
				return false
			}
		}
	}
	d.entries[e.Node] = e
	return true
}

// lookup returns the home relay of a node, if it is known and present.
// node may alias a frame: the lookup converts nothing.
func (d *directory) lookup(node []byte) (home string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[string(node)]
	if !ok || !e.Present {
		return "", false
	}
	return e.Home, true
}

// learn records a node's home as proven by an open of its own that the
// home relay just forwarded here, when the directory does not resolve
// the node — its attach gossip is still in flight, and the reply to the
// open must already find its way back. The guess carries the version the
// directory last saw, so the first gossiped record replaces it, and a
// wrong one draws the usual NACK repair.
func (d *directory) learn(node, home string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur := d.entries[node]; !cur.Present {
		d.entries[node] = Entry{Node: node, Home: home, Version: cur.Version, Present: true}
	}
}

// invalidate repairs a stale route: if the directory still claims node
// lives at home, the entry is marked absent. The version is deliberately
// not bumped — the authoritative record (the node attaching somewhere,
// or the unchanged home re-claiming it in a snapshot) carries a version
// at least as high and wins whenever it arrives.
func (d *directory) invalidate(node, home string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[node]
	if !ok || !e.Present || e.Home != home {
		return false
	}
	e.Present = false
	d.entries[node] = e
	return true
}

// dropRelay marks every node homed at the given relay absent, used when
// the peer link to that relay fails.
func (d *directory) dropRelay(home string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for node, e := range d.entries {
		if e.Present && e.Home == home {
			e.Present = false
			d.entries[node] = e
		}
	}
}

// snapshot returns all entries (including tombstones, which carry the
// version floor a new peer must respect), sorted for determinism.
func (d *directory) snapshot() []Entry {
	d.mu.Lock()
	out := make([]Entry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
