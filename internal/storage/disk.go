// Package storage provides the local-disk substrate used by both engines:
// an in-memory disk for tests, a real-filesystem disk, and a cost-model
// disk that charges seek latency and throughput-proportional delays so a
// scaled-down single-machine run preserves the relative cost of disk IO on
// a commodity cluster (SATA-III in the paper's Table 1).
//
// The package also provides length-prefixed record files used for map-side
// spills, shuffle segments and HDFS block payloads.
package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/hamr-go/hamr/internal/metrics"
	"github.com/hamr-go/hamr/internal/vtime"
)

// Disk abstracts a node-local disk. Implementations must be safe for
// concurrent use by multiple tasks on the same node.
type Disk interface {
	// Create opens a new file for writing, truncating any existing file
	// with the same name.
	Create(name string) (io.WriteCloser, error)
	// Open opens an existing file for reading.
	Open(name string) (io.ReadCloser, error)
	// Remove deletes a file. Removing a missing file is an error.
	Remove(name string) error
	// Size returns the byte size of a file.
	Size(name string) (int64, error)
	// List returns the names of all files with the given prefix, sorted.
	List(prefix string) []string
}

// ErrNotExist is returned when a named file is missing.
type ErrNotExist struct{ Name string }

func (e *ErrNotExist) Error() string { return "storage: file does not exist: " + e.Name }

// ErrDiskFull is returned by writes that exceed a disk's capacity.
type ErrDiskFull struct{ Name string }

func (e *ErrDiskFull) Error() string { return "storage: disk full writing " + e.Name }

// MemDisk is an in-memory Disk. The zero value is not usable; use
// NewMemDisk. Capacity limits (bytes) support disk-full failure injection;
// capacity <= 0 means unlimited.
type MemDisk struct {
	mu       sync.Mutex
	files    map[string][]byte
	used     int64
	capacity int64
}

// NewMemDisk returns an empty in-memory disk with the given byte capacity
// (<= 0 for unlimited).
func NewMemDisk(capacity int64) *MemDisk {
	return &MemDisk{files: make(map[string][]byte), capacity: capacity}
}

// Used returns the number of bytes currently stored.
func (d *MemDisk) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

type memWriter struct {
	d      *MemDisk
	name   string
	buf    bytes.Buffer
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write to closed file %q", w.name)
	}
	w.d.mu.Lock()
	cap, used := w.d.capacity, w.d.used
	w.d.mu.Unlock()
	if cap > 0 && used+int64(w.buf.Len()+len(p)) > cap {
		return 0, &ErrDiskFull{Name: w.name}
	}
	return w.buf.Write(p)
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	if old, ok := w.d.files[w.name]; ok {
		w.d.used -= int64(len(old))
	}
	data := append([]byte(nil), w.buf.Bytes()...)
	if w.d.capacity > 0 && w.d.used+int64(len(data)) > w.d.capacity {
		return &ErrDiskFull{Name: w.name}
	}
	w.d.files[w.name] = data
	w.d.used += int64(len(data))
	return nil
}

// Create implements Disk.
func (d *MemDisk) Create(name string) (io.WriteCloser, error) {
	return &memWriter{d: d, name: name}, nil
}

// Open implements Disk.
func (d *MemDisk) Open(name string) (io.ReadCloser, error) {
	d.mu.Lock()
	data, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return nil, &ErrNotExist{Name: name}
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// Remove implements Disk.
func (d *MemDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.files[name]
	if !ok {
		return &ErrNotExist{Name: name}
	}
	d.used -= int64(len(data))
	delete(d.files, name)
	return nil
}

// Size implements Disk.
func (d *MemDisk) Size(name string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.files[name]
	if !ok {
		return 0, &ErrNotExist{Name: name}
	}
	return int64(len(data)), nil
}

// List implements Disk.
func (d *MemDisk) List(prefix string) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var names []string
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// OSDisk stores files under a root directory on the real filesystem. File
// names may contain '/' which map to subdirectories.
type OSDisk struct {
	root string
}

// NewOSDisk returns a Disk rooted at dir, creating it if needed.
func NewOSDisk(dir string) (*OSDisk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	return &OSDisk{root: dir}, nil
}

func (d *OSDisk) path(name string) string { return filepath.Join(d.root, filepath.FromSlash(name)) }

// Create implements Disk.
func (d *OSDisk) Create(name string) (io.WriteCloser, error) {
	p := d.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, err
	}
	return os.Create(p)
}

// Open implements Disk.
func (d *OSDisk) Open(name string) (io.ReadCloser, error) {
	f, err := os.Open(d.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &ErrNotExist{Name: name}
		}
		return nil, err
	}
	return f, nil
}

// Remove implements Disk.
func (d *OSDisk) Remove(name string) error {
	err := os.Remove(d.path(name))
	if os.IsNotExist(err) {
		return &ErrNotExist{Name: name}
	}
	return err
}

// Size implements Disk.
func (d *OSDisk) Size(name string) (int64, error) {
	fi, err := os.Stat(d.path(name))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, &ErrNotExist{Name: name}
		}
		return 0, err
	}
	return fi.Size(), nil
}

// List implements Disk.
func (d *OSDisk) List(prefix string) []string {
	var names []string
	_ = filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return nil
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	sort.Strings(names)
	return names
}

// CostModel describes the performance of a modeled disk. A scaled-down
// run uses TimeScale < 1 to compress modeled delays while preserving
// their ratio to compute time.
type CostModel struct {
	// SeekLatency is charged once per Create/Open/Remove.
	SeekLatency time.Duration
	// ReadBytesPerSec and WriteBytesPerSec are streaming throughputs.
	ReadBytesPerSec  int64
	WriteBytesPerSec int64
	// TimeScale multiplies every modeled delay (0 treated as 1).
	TimeScale float64
	// Parallel is the number of concurrent IO streams the node's storage
	// sustains at full throughput (the paper's nodes had 5 local disks).
	// Further concurrent accessors queue, which is what makes heavy
	// spill/shuffle traffic expensive. 0 is treated as 1.
	Parallel int
}

// SATA3 is a cost model resembling the paper's SATA-III local disks.
func SATA3() CostModel {
	return CostModel{
		SeekLatency:      8 * time.Millisecond,
		ReadBytesPerSec:  150 << 20,
		WriteBytesPerSec: 120 << 20,
		TimeScale:        1,
	}
}

func (m CostModel) scale(d time.Duration) time.Duration {
	s := m.TimeScale
	if s == 0 {
		s = 1
	}
	return time.Duration(float64(d) * s)
}

func (m CostModel) readDelay(n int) time.Duration {
	if m.ReadBytesPerSec <= 0 {
		return 0
	}
	return m.scale(time.Duration(float64(n) / float64(m.ReadBytesPerSec) * float64(time.Second)))
}

func (m CostModel) writeDelay(n int) time.Duration {
	if m.WriteBytesPerSec <= 0 {
		return 0
	}
	return m.scale(time.Duration(float64(n) / float64(m.WriteBytesPerSec) * float64(time.Second)))
}

// CostDisk wraps a backing Disk and charges modeled delays plus metrics for
// every operation. Metrics recorded: disk.read.bytes, disk.write.bytes,
// disk.read.ops, disk.write.ops, disk.time (timer).
type CostDisk struct {
	backing Disk
	model   CostModel
	reg     *metrics.Registry
	// slots holds one pacer per modeled stream, Parallel in all: a charge
	// takes a slot for its duration, so aggregate throughput cannot exceed
	// Parallel concurrent streams, and pays through the slot's pacer, so a
	// stream's sleep-overshoot credit travels with the slot.
	slots chan *vtime.Pacer
	// sleep, when non-nil, replaces the clock for tests (SetSleep).
	sleep func(time.Duration)
	// clock pays modeled delays; node attributes them (vtime.Driver when
	// the disk is not part of a cluster).
	clock vtime.Clock
	node  int
}

// NewCostDisk wraps backing with the given model, recording into reg
// (which may be nil for no metrics).
func NewCostDisk(backing Disk, model CostModel, reg *metrics.Registry) *CostDisk {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	par := model.Parallel
	if par <= 0 {
		par = 1
	}
	slots := make(chan *vtime.Pacer, par)
	for i := 0; i < par; i++ {
		slots <- new(vtime.Pacer)
	}
	return &CostDisk{
		backing: backing,
		model:   model,
		reg:     reg,
		slots:   slots,
		clock:   vtime.Real(),
		node:    vtime.Driver,
	}
}

// SetSleep replaces the delay function; tests use this to capture modeled
// time without real sleeping. It overrides the clock.
func (d *CostDisk) SetSleep(fn func(time.Duration)) { d.sleep = fn }

// SetClock routes modeled delays through clk, attributed to node's disk
// lane. The cluster wires every node disk here; the default is the real
// clock (plain sleeps).
func (d *CostDisk) SetClock(clk vtime.Clock, node int) {
	if clk != nil {
		d.clock, d.node = clk, node
	}
}

func (d *CostDisk) charge(dur time.Duration) {
	if dur <= 0 {
		return
	}
	d.reg.Observe("disk.time", dur)
	p := <-d.slots
	if d.sleep != nil {
		d.sleep(dur)
	} else {
		p.Charge(d.clock, d.node, vtime.Disk, dur)
	}
	d.slots <- p
}

type costWriter struct {
	io.WriteCloser
	d *CostDisk
}

func (w *costWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	if n > 0 {
		w.d.reg.Add("disk.write.bytes", int64(n))
		w.d.charge(w.d.model.writeDelay(n))
	}
	return n, err
}

type costReader struct {
	io.ReadCloser
	d *CostDisk
}

func (r *costReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	if n > 0 {
		r.d.reg.Add("disk.read.bytes", int64(n))
		r.d.charge(r.d.model.readDelay(n))
	}
	return n, err
}

// Create implements Disk.
func (d *CostDisk) Create(name string) (io.WriteCloser, error) {
	d.reg.Inc("disk.write.ops")
	d.charge(d.model.scale(d.model.SeekLatency))
	w, err := d.backing.Create(name)
	if err != nil {
		return nil, err
	}
	return &costWriter{WriteCloser: w, d: d}, nil
}

// Open implements Disk.
func (d *CostDisk) Open(name string) (io.ReadCloser, error) {
	d.reg.Inc("disk.read.ops")
	d.charge(d.model.scale(d.model.SeekLatency))
	r, err := d.backing.Open(name)
	if err != nil {
		return nil, err
	}
	return &costReader{ReadCloser: r, d: d}, nil
}

// Remove implements Disk.
func (d *CostDisk) Remove(name string) error {
	d.charge(d.model.scale(d.model.SeekLatency))
	return d.backing.Remove(name)
}

// Size implements Disk.
func (d *CostDisk) Size(name string) (int64, error) { return d.backing.Size(name) }

// List implements Disk.
func (d *CostDisk) List(prefix string) []string { return d.backing.List(prefix) }

var (
	_ Disk = (*MemDisk)(nil)
	_ Disk = (*OSDisk)(nil)
	_ Disk = (*CostDisk)(nil)
)
