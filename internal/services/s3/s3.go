// Package s3 simulates an S3-like object store: per-region buckets,
// immutable object versions, and transfer accounting that charges
// cross-region and cross-continent data movement — the cost channel the
// paper calls out for multi-region checkpoint workloads.
package s3

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/cost"
	"spotverse/internal/simclock"
)

// Errors returned by the store.
var (
	ErrNoSuchBucket = errors.New("s3: no such bucket")
	ErrNoSuchKey    = errors.New("s3: no such key")
	ErrBucketExists = errors.New("s3: bucket already exists")
)

// Object is a stored value with metadata. Large simulated payloads may be
// stored size-only (see PutSized): Data stays nil and SyntheticSize
// carries the byte count for billing.
type Object struct {
	Key           string
	Data          []byte
	PutAt         time.Time
	Metadata      map[string]string
	SyntheticSize int64
}

// Size returns the object payload size in bytes.
func (o *Object) Size() int64 {
	if o.SyntheticSize > 0 {
		return o.SyntheticSize
	}
	return int64(len(o.Data))
}

type bucket struct {
	region  catalog.Region
	objects map[string]*Object
}

// FaultFunc decides whether one API call fails with an injected fault
// (nil = healthy). Installed via SetFault; see internal/chaos.
type FaultFunc func(op string, region catalog.Region) error

// CorruptFunc decides whether one Get returns bit-flipped data
// (silent storage corruption surfacing on the read path). Installed via
// SetCorrupt; see internal/chaos.
type CorruptFunc func(bucket, key string) bool

// Store is the simulated object store. All operations charge the ledger.
type Store struct {
	eng     *simclock.Engine
	cat     *catalog.Catalog
	ledger  *cost.Ledger
	buckets map[string]*bucket
	fault   FaultFunc
	corrupt CorruptFunc

	bytesTransferredCross int64
	corruptedReads        int64
}

// SetFault installs a fault interceptor consulted at the top of every
// data-plane call (the issuing region is passed where known); nil (the
// default) disables injection.
func (s *Store) SetFault(fn FaultFunc) { s.fault = fn }

// SetCorrupt installs a read-corruption interceptor consulted on every
// successful Get; nil (the default) disables corruption.
func (s *Store) SetCorrupt(fn CorruptFunc) { s.corrupt = fn }

func (s *Store) injected(op string, region catalog.Region) error {
	if s.fault == nil {
		return nil
	}
	return s.fault(op, region)
}

// New returns an empty store charging the given ledger.
func New(eng *simclock.Engine, cat *catalog.Catalog, ledger *cost.Ledger) *Store {
	return &Store{
		eng:     eng,
		cat:     cat,
		ledger:  ledger,
		buckets: make(map[string]*bucket),
	}
}

// CreateBucket creates a bucket homed in a region.
func (s *Store) CreateBucket(name string, region catalog.Region) error {
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("create bucket %q: %w", name, ErrBucketExists)
	}
	if _, err := s.cat.RegionInfo(region); err != nil {
		return fmt.Errorf("create bucket %q: %w", name, err)
	}
	s.buckets[name] = &bucket{region: region, objects: make(map[string]*Object)}
	return nil
}

// BucketRegion reports where the bucket lives.
func (s *Store) BucketRegion(name string) (catalog.Region, error) {
	b, ok := s.buckets[name]
	if !ok {
		return "", fmt.Errorf("bucket %q: %w", name, ErrNoSuchBucket)
	}
	return b.region, nil
}

// transferCost charges for moving n bytes between from and the bucket's
// region. Same-region transfer is free.
func (s *Store) transferCost(from catalog.Region, b *bucket, n int64) {
	if from == b.region || from == "" {
		return
	}
	gb := float64(n) / (1 << 30)
	rate := cost.S3CrossRegionUSDPerGB
	if s.cat.CrossContinent(from, b.region) {
		rate = cost.S3CrossContinentUSDPerGB
	}
	s.bytesTransferredCross += n
	s.ledger.MustAdd(cost.CategoryS3Transfer, gb*rate)
}

func (s *Store) storageCost(n int64) {
	// Storage billed as one month-fraction on ingest; good enough for
	// experiment-scale horizons.
	gb := float64(n) / (1 << 30)
	s.ledger.MustAdd(cost.CategoryS3Storage, gb*cost.S3StorageUSDPerGBMonth/30)
}

// Put stores data under bucket/key. from is the region issuing the write
// (the instance's region), used for transfer pricing.
func (s *Store) Put(bucketName, key string, data []byte, from catalog.Region) error {
	if err := s.injected("put", from); err != nil {
		return fmt.Errorf("put %s/%s: %w", bucketName, key, err)
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("put %s/%s: %w", bucketName, key, ErrNoSuchBucket)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.objects[key] = &Object{Key: key, Data: cp, PutAt: s.eng.Now(), Metadata: map[string]string{}}
	s.transferCost(from, b, int64(len(data)))
	s.storageCost(int64(len(data)))
	return nil
}

// PutSized stores a size-only object: billing sees size bytes but no
// payload is materialised. Experiments use it for the paper's 1 GB
// checkpoint uploads, which only matter for cost and transfer accounting.
func (s *Store) PutSized(bucketName, key string, size int64, from catalog.Region) error {
	if size < 0 {
		return fmt.Errorf("put-sized %s/%s: negative size %d", bucketName, key, size)
	}
	if err := s.injected("put-sized", from); err != nil {
		return fmt.Errorf("put-sized %s/%s: %w", bucketName, key, err)
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("put-sized %s/%s: %w", bucketName, key, ErrNoSuchBucket)
	}
	b.objects[key] = &Object{Key: key, PutAt: s.eng.Now(), Metadata: map[string]string{}, SyntheticSize: size}
	s.transferCost(from, b, size)
	s.storageCost(size)
	return nil
}

// Get fetches bucket/key; from is the reading region for transfer pricing.
func (s *Store) Get(bucketName, key string, from catalog.Region) (*Object, error) {
	if err := s.injected("get", from); err != nil {
		return nil, fmt.Errorf("get %s/%s: %w", bucketName, key, err)
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("get %s/%s: %w", bucketName, key, ErrNoSuchBucket)
	}
	obj, ok := b.objects[key]
	if !ok {
		return nil, fmt.Errorf("get %s/%s: %w", bucketName, key, ErrNoSuchKey)
	}
	s.transferCost(from, b, obj.Size())
	cp := make([]byte, len(obj.Data))
	copy(cp, obj.Data)
	// Read-path corruption: the stored object is untouched, but this
	// read's copy comes back with one bit flipped mid-payload.
	if s.corrupt != nil && len(cp) > 0 && s.corrupt(bucketName, key) {
		cp[len(cp)/2] ^= 0x01
		s.corruptedReads++
	}
	return &Object{Key: obj.Key, Data: cp, PutAt: obj.PutAt, Metadata: obj.Metadata, SyntheticSize: obj.SyntheticSize}, nil
}

// Exists reports whether bucket/key is present (no transfer charge).
func (s *Store) Exists(bucketName, key string) bool {
	b, ok := s.buckets[bucketName]
	if !ok {
		return false
	}
	_, ok = b.objects[key]
	return ok
}

// Delete removes bucket/key. Deleting a missing key is a no-op (S3
// semantics).
func (s *Store) Delete(bucketName, key string) error {
	if err := s.injected("delete", ""); err != nil {
		return fmt.Errorf("delete %s/%s: %w", bucketName, key, err)
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		return fmt.Errorf("delete %s/%s: %w", bucketName, key, ErrNoSuchBucket)
	}
	delete(b.objects, key)
	return nil
}

// List returns keys in the bucket with the prefix, sorted.
func (s *Store) List(bucketName, prefix string) ([]string, error) {
	if err := s.injected("list", ""); err != nil {
		return nil, fmt.Errorf("list %s: %w", bucketName, err)
	}
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, fmt.Errorf("list %s: %w", bucketName, ErrNoSuchBucket)
	}
	var keys []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// WipeBucket destroys every object in the bucket — a whole-bucket
// data-loss event. The bucket itself survives, so later writes (or a
// replication repair pass) can repopulate it.
func (s *Store) WipeBucket(name string) error {
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("wipe %s: %w", name, ErrNoSuchBucket)
	}
	b.objects = make(map[string]*Object)
	return nil
}

// CorruptedReads reports how many Gets returned bit-flipped data.
func (s *Store) CorruptedReads() int64 { return s.corruptedReads }

// CrossRegionBytes reports total bytes moved across regions so far.
func (s *Store) CrossRegionBytes() int64 { return s.bytesTransferredCross }
