// Package dynamo simulates a DynamoDB-like key-value store: named tables,
// string-keyed items of string attributes, conditional writes, and
// per-request billing. SpotVerse uses it for the Monitor's metric archive
// and for checkpoint workload state.
package dynamo

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"spotverse/internal/catalog"
	"spotverse/internal/cost"
)

// FaultFunc decides whether one API call fails with an injected fault
// (nil = healthy). Installed via SetFault; see internal/chaos.
type FaultFunc func(op string, region catalog.Region) error

// Errors returned by the store.
var (
	ErrNoSuchTable        = errors.New("dynamo: no such table")
	ErrTableExists        = errors.New("dynamo: table already exists")
	ErrConditionFailed    = errors.New("dynamo: conditional check failed")
	ErrItemNotFound       = errors.New("dynamo: item not found")
	ErrEmptyPartitionKey  = errors.New("dynamo: empty partition key")
	ErrReservedAttrPrefix = errors.New("dynamo: attribute names must not start with '_'")
)

// Item is a stored record: a partition key plus string attributes.
type Item struct {
	Key   string
	Attrs map[string]string
}

func (it Item) clone() Item {
	cp := Item{Key: it.Key, Attrs: make(map[string]string, len(it.Attrs))}
	for k, v := range it.Attrs {
		cp.Attrs[k] = v
	}
	return cp
}

// table is one named table: its items and a write version that starts
// at 1 and goes up by one on every successful write.
type table struct {
	items map[string]Item
	ver   uint64
}

// Store is the simulated key-value service.
type Store struct {
	ledger *cost.Ledger
	tables map[string]*table
	fault  FaultFunc

	reads, writes int64
}

// New returns an empty store charging the ledger.
func New(ledger *cost.Ledger) *Store {
	return &Store{ledger: ledger, tables: make(map[string]*table)}
}

// SetFault installs a fault interceptor consulted at the top of every
// data-plane call; nil (the default) disables injection.
func (s *Store) SetFault(fn FaultFunc) { s.fault = fn }

func (s *Store) injected(op string) error {
	if s.fault == nil {
		return nil
	}
	return s.fault(op, "")
}

// CreateTable creates an empty table.
func (s *Store) CreateTable(name string) error {
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("create table %q: %w", name, ErrTableExists)
	}
	s.tables[name] = &table{items: make(map[string]Item), ver: 1}
	return nil
}

func (s *Store) table(name string) (*table, error) {
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("table %q: %w", name, ErrNoSuchTable)
	}
	return t, nil
}

func validate(it Item) error {
	if it.Key == "" {
		return ErrEmptyPartitionKey
	}
	// Checked in sorted order so an item with several reserved
	// attributes reports the same one on every run.
	names := make([]string, 0, len(it.Attrs))
	for k := range it.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if strings.HasPrefix(k, "_") {
			return fmt.Errorf("attribute %q: %w", k, ErrReservedAttrPrefix)
		}
	}
	return nil
}

// Put writes an item unconditionally.
func (s *Store) Put(tableName string, it Item) error {
	if err := s.injected("put"); err != nil {
		return fmt.Errorf("put %s/%s: %w", tableName, it.Key, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	if err := validate(it); err != nil {
		return err
	}
	t.items[it.Key] = it.clone()
	t.ver++
	s.writes++
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoWriteUSD)
	return nil
}

// PutIfAbsent writes the item only if the key does not exist yet.
func (s *Store) PutIfAbsent(tableName string, it Item) error {
	if err := s.injected("put-if-absent"); err != nil {
		return fmt.Errorf("put-if-absent %s/%s: %w", tableName, it.Key, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	if err := validate(it); err != nil {
		return err
	}
	s.writes++
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoWriteUSD)
	if _, exists := t.items[it.Key]; exists {
		return fmt.Errorf("put-if-absent %s/%s: %w", tableName, it.Key, ErrConditionFailed)
	}
	t.items[it.Key] = it.clone()
	t.ver++
	return nil
}

// UpdateIf writes the item only if attribute attr currently equals want.
// A missing item never matches.
func (s *Store) UpdateIf(tableName string, it Item, attr, want string) error {
	if err := s.injected("update-if"); err != nil {
		return fmt.Errorf("update-if %s/%s: %w", tableName, it.Key, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	if err := validate(it); err != nil {
		return err
	}
	s.writes++
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoWriteUSD)
	cur, ok := t.items[it.Key]
	if !ok || cur.Attrs[attr] != want {
		return fmt.Errorf("update-if %s/%s: %w", tableName, it.Key, ErrConditionFailed)
	}
	t.items[it.Key] = it.clone()
	t.ver++
	return nil
}

// UpdateIfAll writes the item only if every attribute named in conds
// currently equals its expected value — a multi-attribute conditional
// write, the primitive behind lease fencing (the condition covers both
// the holder and the fencing token, so a deposed holder's write loses
// even if the lease has since been re-acquired under its old name). A
// missing item never matches. Conditions are checked in sorted
// attribute order so a multiply-failing condition reports the same
// attribute on every run.
func (s *Store) UpdateIfAll(tableName string, it Item, conds map[string]string) error {
	if err := s.injected("update-if-all"); err != nil {
		return fmt.Errorf("update-if-all %s/%s: %w", tableName, it.Key, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	if err := validate(it); err != nil {
		return err
	}
	s.writes++
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoWriteUSD)
	cur, ok := t.items[it.Key]
	if !ok {
		return fmt.Errorf("update-if-all %s/%s: %w", tableName, it.Key, ErrConditionFailed)
	}
	names := make([]string, 0, len(conds))
	for k := range conds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if cur.Attrs[k] != conds[k] {
			return fmt.Errorf("update-if-all %s/%s attr %q: %w", tableName, it.Key, k, ErrConditionFailed)
		}
	}
	t.items[it.Key] = it.clone()
	t.ver++
	return nil
}

// Get reads an item by key.
func (s *Store) Get(tableName, key string) (Item, error) {
	if err := s.injected("get"); err != nil {
		return Item{}, fmt.Errorf("get %s/%s: %w", tableName, key, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return Item{}, err
	}
	s.reads++
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoReadUSD)
	it, ok := t.items[key]
	if !ok {
		return Item{}, fmt.Errorf("get %s/%s: %w", tableName, key, ErrItemNotFound)
	}
	return it.clone(), nil
}

// Delete removes an item; deleting a missing key is a no-op.
func (s *Store) Delete(tableName, key string) error {
	if err := s.injected("delete"); err != nil {
		return fmt.Errorf("delete %s/%s: %w", tableName, key, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	s.writes++
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoWriteUSD)
	delete(t.items, key)
	t.ver++
	return nil
}

// Scan returns items whose keys carry the prefix, ordered by key.
func (s *Store) Scan(tableName, keyPrefix string) ([]Item, error) {
	items, _, err := s.ScanSince(tableName, keyPrefix, 0)
	return items, err
}

// ScanSince is Scan for a caller that already holds the table as of
// write version since. It is billed like Scan, one read per matching
// item, and returns the table's current version; when that equals
// since, nothing was written in between and no items are returned.
// Versions start at 1, so since = 0 always returns the items.
func (s *Store) ScanSince(tableName, keyPrefix string, since uint64) ([]Item, uint64, error) {
	if err := s.injected("scan"); err != nil {
		return nil, 0, fmt.Errorf("scan %s: %w", tableName, err)
	}
	t, err := s.table(tableName)
	if err != nil {
		return nil, 0, err
	}
	var out []Item
	n := 0
	for k, it := range t.items {
		if strings.HasPrefix(k, keyPrefix) {
			n++
			if t.ver != since {
				out = append(out, it.clone())
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	s.reads += int64(n)
	s.ledger.MustAdd(cost.CategoryDynamoDB, cost.DynamoReadUSD*float64(n))
	return out, t.ver, nil
}

// Stats reports request counters.
func (s *Store) Stats() (reads, writes int64) { return s.reads, s.writes }
