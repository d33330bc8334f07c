package heapfile

import (
	"fmt"

	"sae/internal/record"
	"sae/internal/wal"
)

// Catalog is a provider's one record of which ids are live: each live
// id's heap slot and the key its index holds it under. Both providers
// route a delete through it, and Admit checks every write batch against
// it before the batch is logged or applied. The key is kept here rather
// than read back from the slot, so a check charges no page access.
//
// A Catalog is not safe for concurrent use; its provider's lock guards
// it.
type Catalog struct {
	live map[record.ID]Live
}

// Live is where a live id sits: its heap slot and its indexed key.
type Live struct {
	RID RID
	Key record.Key
}

// NewCatalog returns an empty catalog with room for n ids; a load Adds
// each record as it lands.
func NewCatalog(n int) Catalog {
	return Catalog{live: make(map[record.ID]Live, n)}
}

// CatalogOf catalogs a loaded dataset whose records[i] sits at rids[i].
func CatalogOf(records []record.Record, rids []RID) (Catalog, error) {
	c := NewCatalog(len(records))
	for i := range records {
		if err := c.Add(records[i].ID, Live{RID: rids[i], Key: records[i].Key}); err != nil {
			return Catalog{}, err
		}
	}
	return c, nil
}

// Add catalogs a loaded record: id sits at l. An id added twice is an
// error: the provider would hold both records, and deleting the id would
// leave the other served and verifying.
func (c *Catalog) Add(id record.ID, l Live) error {
	if _, dup := c.live[id]; dup {
		return fmt.Errorf("heapfile: record id %d appears more than once in the dataset", id)
	}
	c.live[id] = l
	return nil
}

// Get returns where id sits, if it is live.
func (c *Catalog) Get(id record.ID) (Live, bool) {
	l, ok := c.live[id]
	return l, ok
}

// Put records id as live at l.
func (c *Catalog) Put(id record.ID, l Live) { c.live[id] = l }

// Remove forgets id.
func (c *Catalog) Remove(id record.ID) { delete(c.live, id) }

// Len returns the number of live ids.
func (c *Catalog) Len() int { return len(c.live) }

// Overlay is a group's pending change to a catalog: every id the ops
// admitted so far insert (Live, under their key) or delete (not Live).
// Its owner clears it for each new group, so it makes no garbage once
// grown.
type Overlay map[record.ID]Pending

// Pending is one id's state after the ops admitted so far.
type Pending struct {
	Key  record.Key
	Live bool
}

// Admit is the one admission rule. It checks ops, in order, against the
// catalog as changed by overlay, and records each op's effect in
// overlay: an insert must carry an id that is not live at its point, and
// a delete must name an id that is, under the key it is indexed by. A
// batch Admit accepts applies without error; a refused batch may have
// left some of its effects in overlay, so the caller rebuilds overlay
// from the ops it did admit.
func (c *Catalog) Admit(overlay Overlay, ops []wal.Op) error {
	for i := range ops {
		switch op := &ops[i]; op.Kind {
		case wal.OpInsert:
			if _, live := c.liveKey(overlay, op.Rec.ID); live {
				return fmt.Errorf("heapfile: batch op %d inserts id %d, which is already live", i, op.Rec.ID)
			}
			overlay[op.Rec.ID] = Pending{Key: op.Rec.Key, Live: true}
		case wal.OpDelete:
			key, live := c.liveKey(overlay, op.ID)
			if !live {
				return fmt.Errorf("heapfile: batch op %d deletes id %d, which is not live", i, op.ID)
			}
			if key != op.Key {
				return fmt.Errorf("heapfile: batch op %d deletes id %d under key %d; it is indexed under %d", i, op.ID, op.Key, key)
			}
			overlay[op.ID] = Pending{}
		default:
			return fmt.Errorf("heapfile: batch op %d has unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// liveKey reports id's key and whether it is live, overlay first.
func (c *Catalog) liveKey(overlay Overlay, id record.ID) (record.Key, bool) {
	if p, ok := overlay[id]; ok {
		return p.Key, p.Live
	}
	l, ok := c.live[id]
	return l.Key, ok
}
