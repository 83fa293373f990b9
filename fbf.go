// Package fbf is a simulation library reproducing "Favorable Block
// First: A Comprehensive Cache Scheme to Accelerate Partial Stripe
// Recovery of Triple Disk Failure Tolerant Arrays" (Li, Ji, Wu, Li,
// Guo — ICPP 2017).
//
// The library has four layers under internal/:
//
//   - Erasure codes (STAR, Triple-Star, TIP, HDD1): stripe layouts with
//     horizontal/diagonal/anti-diagonal parity chains, generic GF(2)
//     encode/decode, and exhaustively verified triple-fault tolerance —
//     plus an Azure-style LRC over GF(256) (the paper's footnote 3).
//   - Recovery schemes: given a partial stripe error (a contiguous run
//     of bad chunks on one disk), select a parity chain per lost chunk —
//     either the conventional horizontal-only scheme or the paper's
//     direction-looping scheme that maximizes chunk sharing — and derive
//     the FBF priority dictionary from chain-sharing counts.
//   - Buffer caches: FIFO, LRU, LFU, ARC, LRU-2, 2Q, LRFU, Belady's
//     OPT, and the paper's FBF three-queue priority policy.
//   - Simulation: a deterministic discrete-event disk-array model and
//     reconstruction engines (SOR with partitioned caches, DOR with one
//     shared cache) measuring hit ratio, disk reads, response time and
//     reconstruction time — with online recovery under foreground load,
//     staggered error detection and byte-level verification — plus an
//     experiment harness regenerating the paper's Figures 8–11 and
//     Tables IV–V.
//
// A fifth layer runs the same machinery against real bytes: a pluggable
// chunk store (directory-per-disk, in-memory, object-style) and a
// rebuild service that repairs killed disks on a filesystem,
// oracle-checking every recovered chunk (§12 in DESIGN.md; cmd/fbfctl
// is the operator front end). Rebuilds are crash-safe: a write-ahead
// journal makes an interrupted repair resumable, a fault-injecting
// backend wrapper proves it at every crash point, and a watch daemon
// keeps an array repaired unattended (§13 in DESIGN.md).
//
// This package exports the pipeline the examples use: code → trace →
// scheme → cache policy → Run, the figure and table sweeps, serving
// runs, and the storage engine's rebuild entry points. The commands
// under cmd/ import the internal packages directly for anything more.
//
// Quick start:
//
//	code, _ := fbf.NewCode("tip", 7)
//	errs, _ := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 100, Stripes: 4096, Seed: 1, Disk: -1})
//	res, _ := fbf.Run(fbf.SimConfig{Code: code, Policy: "fbf", Strategy: fbf.StrategyLooped,
//		Workers: 128, CacheChunks: 2048, Stripes: 4096}, errs)
//	fmt.Printf("hit ratio %.3f, %d disk reads, %v reconstruction\n",
//		res.HitRatio(), res.DiskReads, res.Makespan)
package fbf

import (
	"fbf/internal/cache"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/disk"
	"fbf/internal/experiments"
	"fbf/internal/grid"
	"fbf/internal/lrc"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/store/faultstore"
	"fbf/internal/trace"
	"fbf/internal/workload"
)

// Erasure codes.
type (
	// Coord identifies a chunk within a stripe: C(row, col).
	Coord = grid.Coord
	// Code is an erasure-code instance (family bound to a prime p).
	Code = codes.Code
	// Stripe holds one stripe's chunk contents.
	Stripe = codes.Stripe
)

// Code constructors and registry.
var (
	// NewCode constructs a code by family name ("star", "triplestar",
	// "tip", "hdd1").
	NewCode = codes.New
	// MustNewCode is NewCode that panics on error.
	MustNewCode = codes.MustNew
	// CodeNames lists the registered code families.
	CodeNames = codes.Names
	// NewSTAR constructs the STAR code (p+3 disks).
	NewSTAR = codes.NewSTAR
	// NewTripleStar constructs the Triple-Star stand-in (p+2 disks).
	NewTripleStar = codes.NewTripleStar
	// NewTIP constructs the TIP-code stand-in (p+1 disks).
	NewTIP = codes.NewTIP
	// NewHDD1 constructs the HDD1 stand-in (p+1 disks).
	NewHDD1 = codes.NewHDD1
	// NewLRC constructs the Azure-style LRC(k, l, g) over GF(256), the
	// Reed-Solomon-based counterpart of the paper's footnote 3, with the
	// given stripe height.
	NewLRC = lrc.New
)

// Caching.
type (
	// ChunkID identifies a chunk on the array (stripe + cell).
	ChunkID = cache.ChunkID
	// FBFCache is the paper's three-queue priority policy.
	FBFCache = core.FBF
)

var (
	// PolicyNames lists the registered cache policies.
	PolicyNames = cache.Names
	// NewFBF constructs the FBF policy directly.
	NewFBF = core.NewFBF
)

// Recovery schemes.
type (
	// PartialStripeError is a contiguous run of bad chunks on one disk.
	PartialStripeError = core.PartialStripeError
	// Strategy selects the chain-selection heuristic.
	Strategy = core.Strategy
)

// Chain-selection strategies.
const (
	// StrategyTypical is conventional horizontal-only recovery.
	StrategyTypical = core.StrategyTypical
	// StrategyLooped is the paper's direction-looping FBF scheme.
	StrategyLooped = core.StrategyLooped
)

// GenerateScheme builds the recovery scheme for one error.
var GenerateScheme = core.GenerateScheme

// Workload generation.
type (
	// TraceConfig parameterizes synthetic error-trace generation.
	TraceConfig = trace.Config
	// WorkloadConfig parameterizes the deterministic open-loop
	// Zipf/YCSB-style foreground generator serving runs replay.
	WorkloadConfig = workload.Config
)

var (
	// GenerateTrace produces partial stripe error groups.
	GenerateTrace = trace.Generate
	// WriteTraceCSV serializes a trace.
	WriteTraceCSV = trace.WriteCSV
	// ReadTraceCSV parses a serialized trace.
	ReadTraceCSV = trace.ReadCSV
	// NewWorkload builds a foreground workload generator; the same
	// config yields a byte-identical stream on any host.
	NewWorkload = workload.New
	// WorkloadArrivalAt is the pure open-loop arrival-time spec
	// (generator timestamps are exactly this arithmetic).
	WorkloadArrivalAt = workload.ArrivalAt
	// WorkloadZipfPMF is the analytic Zipf probability mass function the
	// generator's stripe draws are chi-square-tested against.
	WorkloadZipfPMF = workload.ZipfPMF
)

// Simulation.
type (
	// SimConfig parameterizes one reconstruction run.
	SimConfig = rebuild.Config
	// ServingConfig parameterizes the heavy-traffic foreground stream of
	// a serving run (SimConfig.Serving): open-loop Zipf read/write mix
	// with per-stripe-class latency percentiles and an optional QoS
	// rebuild throttle.
	ServingConfig = rebuild.ServingConfig
	// QoSConfig parameterizes the adaptive AIMD rebuild throttle of a
	// serving run.
	QoSConfig = rebuild.QoSConfig
	// DiskModel is a disk service-time model.
	DiskModel = disk.Model
)

// Stripe classes of serving-mode foreground requests.
const (
	ClassHealthy  = rebuild.ClassHealthy
	ClassDegraded = rebuild.ClassDegraded
	ClassLost     = rebuild.ClassLost
)

var (
	// Run executes a reconstruction and returns the metrics.
	Run = rebuild.Run
	// AIMDNext is the pure reference spec of one QoS controller decision;
	// serving runs' recorded traces are model-checked against it.
	AIMDNext = rebuild.AIMDNext
	// NewPositional builds a seek/rotation/transfer disk model.
	NewPositional = disk.NewPositional
)

// Experiments.
type (
	// ExperimentParams configures a figure/table sweep.
	ExperimentParams = experiments.Params
	// ServingSweepConfig configures the heavy-traffic serving experiment.
	ServingSweepConfig = experiments.ServingSweep
)

// Experiment functions (one per paper artefact, plus renderers).
var (
	// DefaultExperimentParams is the paper's configuration.
	DefaultExperimentParams = experiments.DefaultParams
	// Sweep runs the full sweep cross product.
	Sweep = experiments.Sweep
	// Fig8 reproduces Figure 8 (hit ratio).
	Fig8 = experiments.Fig8
	// Fig9 reproduces Figure 9 (disk reads).
	Fig9 = experiments.Fig9
	// Fig10 reproduces Figure 10 (response time).
	Fig10 = experiments.Fig10
	// Fig11 reproduces Figure 11 (reconstruction time).
	Fig11 = experiments.Fig11
	// Table4 reproduces Table IV (FBF overhead).
	Table4 = experiments.Table4
	// Table5 reproduces Table V (maximum improvements).
	Table5 = experiments.Table5
	// RenderFigure prints a figure as aligned text tables.
	RenderFigure = experiments.RenderFigure
	// ServingSweep runs the serving experiment: latency/throughput
	// frontiers per cache policy under rebuild, optionally QoS-throttled.
	ServingSweep = experiments.Serving
	// RenderServing prints the serving frontier table.
	RenderServing = experiments.RenderServing
)

// Storage engine (real bytes behind the simulator; see §12 in DESIGN.md).
type (
	// StoreManifest describes an on-disk array: code, prime, geometry,
	// chunk size.
	StoreManifest = store.ArrayManifest
	// RebuildConfig parameterizes one storage-engine rebuild. Set
	// JournalPath to make it journal its progress and resume after a
	// crash.
	RebuildConfig = rebuild.ServiceConfig
	// DirStoreOptions tunes the directory backend's durability
	// (OpenDirStoreWith).
	DirStoreOptions = store.DirOptions
	// FaultStorePlan parameterizes the deterministic seeded fault
	// injection (EIO, ENOSPC, torn writes, stalls, crash points) of
	// WrapFaultStore.
	FaultStorePlan = faultstore.Plan
	// DaemonConfig parameterizes the rebuild watch loop.
	DaemonConfig = rebuild.DaemonConfig
)

// ErrFaultCrashed reports a fault-injecting store's crash point was
// reached and all further I/O is halted; match it with errors.Is.
var ErrFaultCrashed = faultstore.ErrCrashed

// Storage engine functions.
var (
	// NewMemStore builds an empty in-memory store.
	NewMemStore = store.NewMem
	// OpenDirStoreWith opens (creating if needed) a directory-backed
	// store with explicit durability options.
	OpenDirStoreWith = store.OpenDirWith
	// NewStoreThrottle wraps a backend with a bytes-per-second budget.
	NewStoreThrottle = store.NewThrottle
	// WrapFaultStore puts a fault plan in front of a backend.
	WrapFaultStore = faultstore.Wrap
	// InitStore materializes a full deterministic array into a backend.
	InitStore = rebuild.InitStore
	// ScanStore assesses a store's damage against its manifest.
	ScanStore = rebuild.ScanStore
	// Rebuild scans and repairs a store through the scheme/cache/
	// escalation machinery, oracle-checking every recovered chunk.
	Rebuild = rebuild.RunService
	// RunDaemon watches a store, running journaled rebuilds whenever
	// damage appears, until Stop fires or MaxScans is reached.
	RunDaemon = rebuild.RunDaemon
)
