// Package ycsb implements the YCSB core workloads (A-F) and the zipfian /
// uniform / latest key-choosers from the benchmark paper, plus the
// HBase-like serving layer of Section 5.1: region servers coordinate
// through ZooKeeper (ephemeral registration, master watches, meta
// location) while the actual workload traffic never touches ZooKeeper —
// which is precisely the paper's point about ZooKeeper underutilization.
package ycsb

import (
	"math"
	"math/rand"
)

// OpKind is one YCSB operation type.
type OpKind uint8

// YCSB operation kinds.
const (
	OpRead OpKind = iota + 1
	OpUpdate
	OpInsert
	OpScan
	OpReadModifyWrite
)

// Workload is one YCSB core workload mix.
type Workload struct {
	Name       string
	ReadProp   float64
	UpdateProp float64
	InsertProp float64
	ScanProp   float64
	RMWProp    float64
	// Latest biases the key-chooser toward recently inserted records
	// (workload D).
	Latest bool
}

// CoreWorkloads returns the standard YCSB workloads A-F.
func CoreWorkloads() []Workload {
	return []Workload{
		{Name: "A", ReadProp: 0.5, UpdateProp: 0.5},
		{Name: "B", ReadProp: 0.95, UpdateProp: 0.05},
		{Name: "C", ReadProp: 1.0},
		{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Latest: true},
		{Name: "E", ScanProp: 0.95, InsertProp: 0.05},
		{Name: "F", ReadProp: 0.5, RMWProp: 0.5},
	}
}

// Next draws the next operation kind from the mix.
func (w Workload) Next(r *rand.Rand) OpKind {
	u := r.Float64()
	switch {
	case u < w.ReadProp:
		return OpRead
	case u < w.ReadProp+w.UpdateProp:
		return OpUpdate
	case u < w.ReadProp+w.UpdateProp+w.InsertProp:
		return OpInsert
	case u < w.ReadProp+w.UpdateProp+w.InsertProp+w.ScanProp:
		return OpScan
	default:
		return OpReadModifyWrite
	}
}

// Zipfian generates keys in [0, n) with the YCSB zipfian distribution
// (theta 0.99), using the Gray et al. rejection-free method.
type Zipfian struct {
	n     int64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	half  float64 // 1 + 0.5^theta: the upper bound of key 1's draw band
}

// NewZipfian builds a zipfian chooser over n items.
func NewZipfian(n int64) *Zipfian {
	const theta = 0.99
	z := &Zipfian{n: n, half: 1 + math.Pow(0.5, theta)}
	z.zeta2 = zeta(2, theta)
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws a key index; hot items are the low indices.
func (z *Zipfian) Next(r *rand.Rand) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// KeyChooser picks record keys for a workload.
type KeyChooser struct {
	zip      *Zipfian
	latest   bool
	inserted int64
	r        *rand.Rand
}

// NewKeyChooser builds a chooser over an initial record count.
func NewKeyChooser(records int64, latest bool, r *rand.Rand) *KeyChooser {
	return &KeyChooser{zip: NewZipfian(records), latest: latest, inserted: records, r: r}
}

// Next returns the key index for the next operation.
func (kc *KeyChooser) Next() int64 {
	k := kc.zip.Next(kc.r)
	if kc.latest {
		// Workload D: bias toward the most recent inserts.
		k = kc.inserted - 1 - k
		if k < 0 {
			k = 0
		}
	}
	if k >= kc.inserted {
		k = kc.inserted - 1
	}
	return k
}

// Insert records a new key, growing the keyspace (workloads D and E).
func (kc *KeyChooser) Insert() int64 {
	k := kc.inserted
	kc.inserted++
	return k
}
