// service.go promotes the simulator's data plane into a storage engine:
// rebuild.Service drives the same scheme/cache/escalation machinery the
// event-driven engine replays — core.RegenerateScheme chain selection,
// cache.Policy residency with FBF priorities, the escalate-and-replan
// ladder — against real bytes in a store.Backend, byte-checking every
// recovered chunk with internal/verify's GF(2) oracle before it is
// written back.
package rebuild

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"fbf/internal/cache"
	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/telemetry"
	"fbf/internal/verify"
)

// Service priority orders: which damaged stripes are repaired first.
const (
	// PrioritySequential repairs stripes in ascending index order — the
	// mdadm-style default.
	PrioritySequential = "sequential"
	// PriorityVulnerable repairs the stripes with the most lost chunks
	// first, shrinking the window in which a further failure causes
	// data loss.
	PriorityVulnerable = "vulnerable"
)

// Priorities lists the valid Service priority orders.
func Priorities() []string { return []string{PrioritySequential, PriorityVulnerable} }

// ServiceConfig parameterizes one storage-engine rebuild.
type ServiceConfig struct {
	Backend  store.Backend
	Manifest store.ArrayManifest

	Policy   string        // cache policy for surviving-chunk bytes (default "fbf")
	Strategy core.Strategy // chain-selection strategy

	// CacheChunks bounds the in-memory byte cache holding surviving
	// chunks across chains (default 64). Zero keeps the default; a
	// negative value disables caching entirely.
	CacheChunks int

	// CheckOnly scans and reports damage without planning or writing —
	// `fbfctl rebuild -o check-only`.
	CheckOnly bool
	// DryRun scans and plans the full rebuild (schemes included) but
	// performs no reads of chunk payloads and no writes.
	DryRun bool
	// Scrub makes the damage scan read and CRC-check every payload
	// instead of trusting the cheap header Stat, catching silent
	// payload bit-rot at scan time.
	Scrub bool
	// NoVerify skips the GF(2) oracle cross-check of recovered chunks.
	NoVerify bool

	// Priority selects the stripe repair order (PrioritySequential
	// default, PriorityVulnerable).
	Priority string

	// JournalPath, when set, makes the rebuild crash-safe: scan results,
	// per-stripe plans, and per-chunk commits append to a write-ahead
	// journal at this path, and a rerun with the same path resumes —
	// re-verifying the interrupted stripe's committed chunks against the
	// journaled payload CRCs and the GF(2) oracle before continuing. The
	// journal is removed on clean completion. Incompatible with
	// CheckOnly and DryRun, which perform no repairs to journal.
	JournalPath string

	// Stop, when non-nil, requests graceful shutdown: once the channel
	// is closed the service finishes the chunk repair in flight, syncs
	// the journal, and returns with Interrupted set instead of an error.
	Stop <-chan struct{}

	// Progress, when non-nil, is called after every repaired stripe —
	// the hook fbfctl turns into mdadm-style percent-complete lines.
	Progress func(Progress)

	// Metrics, when non-nil, receives live wall-clock telemetry as the
	// repair advances (scrapeable mid-run); nil runs take no extra work.
	Metrics *telemetry.RebuildMetrics
}

// Progress reports how far a rebuild has advanced.
type Progress struct {
	Stripe        int // stripe just repaired
	StripesTotal  int // damaged stripes to repair
	StripesDone   int
	ChunksRebuilt int
}

// Percent returns completion as 0–100.
func (p Progress) Percent() int {
	if p.StripesTotal == 0 {
		return 100
	}
	return 100 * p.StripesDone / p.StripesTotal
}

func (c *ServiceConfig) defaults() {
	if c.Policy == "" {
		c.Policy = "fbf"
	}
	if c.CacheChunks == 0 {
		c.CacheChunks = 64
	}
	if c.Priority == "" {
		c.Priority = PrioritySequential
	}
}

func (c *ServiceConfig) validate() error {
	if c.Backend == nil {
		return &ConfigError{Field: "Backend", Reason: "nil backend"}
	}
	if err := c.Manifest.Validate(); err != nil {
		return err
	}
	if _, err := cache.New(c.Policy, 0); err != nil {
		return err
	}
	if c.CheckOnly && c.DryRun {
		return &ConfigError{Field: "CheckOnly", Reason: "check-only and dry-run are mutually exclusive"}
	}
	if c.JournalPath != "" && (c.CheckOnly || c.DryRun) {
		return &ConfigError{Field: "JournalPath", Reason: "journaling applies only to executing rebuilds (not check-only or dry-run)"}
	}
	switch c.Priority {
	case PrioritySequential, PriorityVulnerable:
	default:
		return &ConfigError{Field: "Priority", Reason: fmt.Sprintf("unknown priority %q (have %s)", c.Priority, strings.Join(Priorities(), ", "))}
	}
	return nil
}

// ResolveCode constructs the manifest's erasure code and checks the
// manifest dimensions against the code geometry, so a store initialized
// under one prime cannot be silently rebuilt under another.
func ResolveCode(m store.ArrayManifest) (*codes.Code, error) {
	code, err := codes.New(m.Code, m.P)
	if err != nil {
		return nil, err
	}
	if code.Disks() != m.Disks || code.Rows() != m.Rows {
		return nil, fmt.Errorf("rebuild: manifest says %dx%d (disks x rows), %v has %dx%d",
			m.Disks, m.Rows, code, code.Disks(), code.Rows())
	}
	return code, nil
}

// AddrOf maps a stripe-local cell to its store address: the cell's
// column is the disk, its row the chunk slot.
func AddrOf(stripe int, cell grid.Coord) store.Addr {
	return store.Addr{Disk: cell.Col, Stripe: stripe, Chunk: cell.Row}
}

// StripeSeed derives the data seed of one stripe from the store's base
// seed — the convention InitStore writes with and tests recompute
// ground truth from.
func StripeSeed(base int64, stripe int) int64 { return base + int64(stripe) }

// InitStore materializes a full, clean array into a backend: every
// stripe's data chunks are filled deterministically from seed, parity
// is encoded, and all chunks are written. The chunk buffers are pooled
// and flow straight into the backend's file/object I/O.
func InitStore(b store.Backend, m store.ArrayManifest, seed int64) error {
	code, err := ResolveCode(m)
	if err != nil {
		return err
	}
	pool := chunk.NewPool(m.ChunkSize)
	stripeBuf := make([]chunk.Chunk, code.Layout().Cells())
	for i := range stripeBuf {
		stripeBuf[i] = pool.GetRaw()
	}
	defer func() {
		for _, c := range stripeBuf {
			pool.Put(c)
		}
	}()
	for s := 0; s < m.Stripes; s++ {
		code.MaterializeStripeInto(stripeBuf, StripeSeed(seed, s))
		for idx, c := range stripeBuf {
			if err := b.WriteChunk(AddrOf(s, code.CoordOf(idx)), c); err != nil {
				return err
			}
		}
	}
	return nil
}

// StripeDamage lists one stripe's unreadable cells.
type StripeDamage struct {
	Stripe  int
	Missing []grid.Coord // absent chunks, sorted
	Corrupt []grid.Coord // present but failing validation, sorted
}

// Lost merges missing and corrupt cells in sorted order.
func (d *StripeDamage) Lost() []grid.Coord {
	out := make([]grid.Coord, 0, len(d.Missing)+len(d.Corrupt))
	out = append(out, d.Missing...)
	out = append(out, d.Corrupt...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// DamageReport is the outcome of a store scan.
type DamageReport struct {
	Stripes []StripeDamage // damaged stripes, ascending index

	MissingChunks int
	CorruptChunks int

	// PerDiskPresent counts readable chunks per disk; FailedDisks lists
	// disks with nothing present at all (the killed-directory state).
	PerDiskPresent []int
	FailedDisks    []int

	// ExtraChunks are addresses present in the store but outside the
	// manifest geometry — reported, never touched.
	ExtraChunks []store.Addr
}

// Clean reports an undamaged store.
func (r *DamageReport) Clean() bool { return r.MissingChunks == 0 && r.CorruptChunks == 0 }

// LostChunks returns the total unreadable chunks.
func (r *DamageReport) LostChunks() int { return r.MissingChunks + r.CorruptChunks }

// ScanStore assesses a store against its manifest: every in-geometry
// address is checked for presence and validity (Stat's header check by
// default; full payload CRC reads with scrub) and grouped into
// per-stripe damage.
func ScanStore(b store.Backend, m store.ArrayManifest, scrub bool) (*DamageReport, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	report := &DamageReport{PerDiskPresent: make([]int, m.Disks)}
	perStripe := make(map[int]*StripeDamage)
	damage := func(stripe int, cell grid.Coord, corrupt bool) {
		d := perStripe[stripe]
		if d == nil {
			d = &StripeDamage{Stripe: stripe}
			perStripe[stripe] = d
		}
		if corrupt {
			d.Corrupt = append(d.Corrupt, cell)
			report.CorruptChunks++
		} else {
			d.Missing = append(d.Missing, cell)
			report.MissingChunks++
		}
	}
	var buf chunk.Chunk
	if scrub {
		buf = chunk.New(m.ChunkSize)
	}
	for disk := 0; disk < m.Disks; disk++ {
		addrs, err := b.List(disk)
		if err != nil {
			return nil, err
		}
		present := make(map[store.Addr]bool, len(addrs))
		for _, a := range addrs {
			if a.Stripe >= m.Stripes || a.Chunk >= m.Rows {
				report.ExtraChunks = append(report.ExtraChunks, a)
				continue
			}
			present[a] = true
		}
		for stripe := 0; stripe < m.Stripes; stripe++ {
			for row := 0; row < m.Rows; row++ {
				cell := grid.Coord{Row: row, Col: disk}
				a := AddrOf(stripe, cell)
				if !present[a] {
					damage(stripe, cell, false)
					continue
				}
				var err error
				var size int
				if scrub {
					size, err = b.ReadChunk(a, buf)
				} else {
					var info store.Info
					info, err = b.Stat(a)
					size = info.Size
				}
				switch {
				case store.IsCorrupt(err):
					damage(stripe, cell, true)
				case store.IsNotFound(err):
					damage(stripe, cell, false)
				case err != nil:
					return nil, err
				case size != m.ChunkSize:
					// Valid codec, wrong array: a chunk of another
					// store's geometry cannot serve reads here.
					damage(stripe, cell, true)
				default:
					report.PerDiskPresent[disk]++
				}
			}
		}
		if report.PerDiskPresent[disk] == 0 && m.Stripes*m.Rows > 0 {
			report.FailedDisks = append(report.FailedDisks, disk)
		}
	}
	for _, d := range perStripe {
		sort.Slice(d.Missing, func(i, j int) bool { return d.Missing[i].Less(d.Missing[j]) })
		sort.Slice(d.Corrupt, func(i, j int) bool { return d.Corrupt[i].Less(d.Corrupt[j]) })
		report.Stripes = append(report.Stripes, *d)
	}
	sort.Slice(report.Stripes, func(i, j int) bool { return report.Stripes[i].Stripe < report.Stripes[j].Stripe })
	sort.Slice(report.ExtraChunks, func(i, j int) bool { return report.ExtraChunks[i].Less(report.ExtraChunks[j]) })
	return report, nil
}

// ServiceResult aggregates one service run.
type ServiceResult struct {
	Report *DamageReport

	StripesRepaired int
	ChunksRebuilt   int
	ChunksVerified  int // oracle cross-checks that passed
	ChunksDecoded   int // rebuilt via the GF(2) decoder fallback rather than a single chain

	// Planned work (populated by DryRun instead of the executed
	// counters above).
	PlannedChunks int // chunks a rebuild would write
	PlannedReads  int // distinct source chunks it would read

	DiskReads   uint64 // backend payload reads during repair
	VerifyReads uint64 // extra backend reads by the oracle cross-check
	CacheHits   uint64
	CacheMisses uint64

	Escalations   int // surviving chunks found unreadable mid-chain
	Regenerations int // schemes regenerated after an escalation

	// Data loss: cells even the decoder could not solve.
	DataLoss bool
	Lost     []store.Addr

	BytesWritten int64

	// Crash-safety accounting (journaled runs only).
	Interrupted    bool  // a Stop request ended the run early; the journal is kept
	JournalOffset  int64 // journal append offset at exit (zero once the journal is removed)
	ResumedCommits int   // chunk commits replayed from a prior run's journal
	ResumeVerified int   // replayed commits that re-passed the CRC and oracle checks
}

// RunService scans the store and repairs every damaged stripe through
// the scheme/cache/escalation machinery, byte-checking recovered chunks
// against the GF(2) oracle before writing them back. CheckOnly stops
// after the scan; DryRun stops after planning. Unsolvable cells are
// accounted as data loss, not an error — errors mean the engine itself
// could not proceed (I/O failures, bad configuration).
func RunService(cfg ServiceConfig) (*ServiceResult, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	code, err := ResolveCode(cfg.Manifest)
	if err != nil {
		return nil, err
	}
	var jn *Journal
	var jstate *JournalState
	if cfg.JournalPath != "" {
		jn, jstate, err = OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		if jstate.Complete {
			// The journal records a finished rebuild (a crash landed
			// between its done record and its removal); this run is a
			// new damage episode, not a resume.
			if err := jn.Reset(); err != nil {
				jn.Close()
				return nil, err
			}
			jstate = &JournalState{Plans: map[int][]grid.Coord{}, Commits: map[store.Addr]uint32{}, Done: map[int]bool{}}
		}
		if sc := jstate.Scan; sc != nil {
			m := cfg.Manifest
			if sc.Disks != m.Disks || sc.Rows != m.Rows || sc.Stripes != m.Stripes || sc.ChunkSize != m.ChunkSize {
				jn.Close()
				return nil, fmt.Errorf("rebuild: journal %s was written for a %dx%d array of %d stripes (chunk %d bytes); manifest says %dx%d, %d stripes (chunk %d bytes)",
					cfg.JournalPath, sc.Disks, sc.Rows, sc.Stripes, sc.ChunkSize, m.Disks, m.Rows, m.Stripes, m.ChunkSize)
			}
		}
	}
	report, err := ScanStore(cfg.Backend, cfg.Manifest, cfg.Scrub)
	if err != nil {
		if jn != nil {
			jn.Close()
		}
		return nil, err
	}
	res := &ServiceResult{Report: report}
	if m := cfg.Metrics; m != nil {
		m.ScanMissing.Set(float64(report.MissingChunks))
		m.ScanCorrupt.Set(float64(report.CorruptChunks))
	}
	if cfg.CheckOnly {
		return res, nil
	}
	if report.Clean() && (jn == nil || len(jstate.InFlight()) == 0) {
		// Nothing to repair and nothing in flight to re-verify. A
		// leftover journal here recorded repairs that all landed; drop
		// it so the store tree matches a never-damaged one.
		if jn != nil {
			if err := jn.Remove(); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	s := &service{cfg: &cfg, code: code, res: res, pool: chunk.NewPool(cfg.Manifest.ChunkSize), journal: jn}
	if cfg.CacheChunks > 0 {
		s.policy, err = cache.New(cfg.Policy, cfg.CacheChunks)
		if err != nil {
			if jn != nil {
				jn.Close()
			}
			return nil, err
		}
		s.bufs = make(map[cache.ChunkID]chunk.Chunk, cfg.CacheChunks)
	}

	err = s.execute(jstate)
	if s.policy != nil {
		st := s.policy.Stats()
		res.CacheHits, res.CacheMisses = st.Hits, st.Misses
	}
	res.DataLoss = len(res.Lost) > 0
	if m := cfg.Metrics; m != nil {
		m.DataLossChunks.Set(float64(len(res.Lost)))
	}
	if jn != nil {
		res.JournalOffset = jn.Offset()
		if err != nil || res.Interrupted {
			// Keep the journal: sync what we know so the next run
			// resumes from it. The sync error (if any) must not shadow
			// the run's own outcome.
			if serr := jn.Sync(); serr != nil && err == nil {
				err = serr
			}
			jn.Close()
		} else {
			// Clean completion: mark done, then remove — the done
			// record covers a crash inside this window.
			if m := cfg.Metrics; m != nil {
				m.JournalRecords.Inc()
			}
			ferr := jn.AppendDone()
			if ferr == nil {
				ferr = jn.Sync()
			}
			if ferr == nil {
				ferr = jn.Remove()
				res.JournalOffset = 0
			} else {
				jn.Close()
			}
			if ferr != nil {
				return nil, ferr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// execute runs the repair pass: resume verification of journaled
// commits, stripe ordering, and the repair loop with graceful-stop
// checks between stripes.
func (s *service) execute(jstate *JournalState) error {
	cfg, res, report := s.cfg, s.res, s.res.Report
	if s.journal != nil {
		res.ResumedCommits = len(jstate.Commits)
		if mt := cfg.Metrics; mt != nil {
			mt.ResumedCommits.Add(uint64(res.ResumedCommits))
		}
		if err := s.verifyResumed(jstate); err != nil {
			return err
		}
		m := cfg.Manifest
		if err := s.journal.AppendScan(JournalScan{
			Disks: m.Disks, Rows: m.Rows, Stripes: m.Stripes, ChunkSize: m.ChunkSize,
			Missing: report.MissingChunks, Corrupt: report.CorruptChunks,
			DamagedStripes: len(report.Stripes),
		}); err != nil {
			return err
		}
		if mt := cfg.Metrics; mt != nil {
			mt.JournalRecords.Inc()
		}
		if err := s.journal.Sync(); err != nil {
			return err
		}
	}
	order := append([]StripeDamage(nil), report.Stripes...)
	if cfg.Priority == PriorityVulnerable {
		sort.SliceStable(order, func(i, j int) bool {
			li, lj := len(order[i].Missing)+len(order[i].Corrupt), len(order[j].Missing)+len(order[j].Corrupt)
			if li != lj {
				return li > lj
			}
			return order[i].Stripe < order[j].Stripe
		})
	}
	if mt := cfg.Metrics; mt != nil {
		mt.StripesPlanned.Add(uint64(len(order)))
	}
	for _, d := range order {
		if s.stopRequested() {
			res.Interrupted = true
		}
		if res.Interrupted {
			break
		}
		if err := s.repairStripe(d); err != nil {
			return err
		}
		if res.Interrupted {
			// The stop landed mid-stripe: the chunk in flight was
			// finished and committed, but the stripe was not.
			break
		}
		res.StripesRepaired++
		if mt := cfg.Metrics; mt != nil {
			mt.StripesDone.Inc()
			mt.Percent.Set(float64(Progress{StripesTotal: len(order), StripesDone: res.StripesRepaired}.Percent()))
		}
		if cfg.Progress != nil {
			cfg.Progress(Progress{Stripe: d.Stripe, StripesTotal: len(order), StripesDone: res.StripesRepaired, ChunksRebuilt: res.ChunksRebuilt})
		}
	}
	return nil
}

// stopRequested polls the graceful-shutdown channel.
func (s *service) stopRequested() bool {
	if s.cfg.Stop == nil {
		return false
	}
	select {
	case <-s.cfg.Stop:
		return true
	default:
		return false
	}
}

// verifyResumed re-checks every chunk a prior run journaled as
// committed in a stripe it never finished: the payload must match the
// journaled CRC and (when the journaled lost set makes the cell
// solvable) re-derive identically through the GF(2) oracle, solved once
// per stripe for all such cells. A chunk that fails either check is
// flagged as corrupt damage so the repair loop rebuilds it; a chunk the
// fresh scan already flagged needs no second opinion.
func (s *service) verifyResumed(st *JournalState) error {
	m := s.cfg.Manifest
	for _, stripe := range st.InFlight() {
		lost := st.Plans[stripe]
		var cells []grid.Coord
		for a := range st.Commits {
			if a.Stripe == stripe {
				cells = append(cells, grid.Coord{Row: a.Chunk, Col: a.Disk})
			}
		}
		if len(cells) == 0 {
			continue
		}
		sort.Slice(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
		oracle, err := verify.NewOracle(s.code, lost)
		if err != nil {
			return err
		}
		// The journal CRC first; CRC-clean solvable cells keep their
		// bytes for the oracle.
		var check []grid.Coord
		var got []chunk.Chunk
		buf := s.pool.GetRaw()
		for _, cell := range cells {
			a := AddrOf(stripe, cell)
			n, err := s.cfg.Backend.ReadChunk(a, buf)
			switch {
			case store.IsNotFound(err) || store.IsCorrupt(err):
				// The fresh scan already re-flagged this one.
				continue
			case err != nil:
				return err
			case n != m.ChunkSize || PayloadCRC(buf[:n]) != st.Commits[a]:
				s.flagResumedCorrupt(stripe, cell)
				continue
			}
			if !oracle.Solvable(cell) {
				s.resumeVerified()
				continue
			}
			check, got = append(check, cell), append(got, buf)
			buf = s.pool.GetRaw()
		}
		s.pool.Put(buf)
		err = s.resumeOracle(stripe, oracle, check, got)
		for _, c := range got {
			s.pool.Put(c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// resumeOracle diffs the committed bytes got[i] of each cells[i] against
// one oracle solve for all of them. A cell whose plan reads a damaged
// source keeps its CRC verdict (it is neither flagged nor counted as
// verified: repairing the stripe's fresh damage is what restores full
// verifiability), and the rest are solved again without it; every
// retry drops at least one cell.
func (s *service) resumeOracle(stripe int, oracle *verify.Oracle, cells []grid.Coord, got []chunk.Chunk) error {
	want, release := s.pooled(len(cells))
	defer release()
	for len(cells) > 0 {
		bad, err := s.solve(stripe, oracle, cells, want[:len(cells)])
		if err != nil {
			return err
		}
		if bad == nil {
			break
		}
		var keepCells []grid.Coord
		var keepGot []chunk.Chunk
		for i, cell := range cells {
			if !slices.Contains(oracle.Sources(cell), *bad) {
				keepCells, keepGot = append(keepCells, cell), append(keepGot, got[i])
			}
		}
		cells, got = keepCells, keepGot
	}
	for i, cell := range cells {
		if verify.Agree(cell, want[i], got[i]) != nil {
			// Structurally valid bytes that do not re-derive: the
			// commit lied (tampering, silent corruption).
			s.flagResumedCorrupt(stripe, cell)
			continue
		}
		s.resumeVerified()
	}
	return nil
}

func (s *service) resumeVerified() {
	s.res.ResumeVerified++
	if mt := s.cfg.Metrics; mt != nil {
		mt.ResumedVerified.Inc()
	}
}

// flagResumedCorrupt folds a failed resume verification into the damage
// report, so the repair loop treats the chunk like any other corrupt
// cell.
func (s *service) flagResumedCorrupt(stripe int, cell grid.Coord) {
	report := s.res.Report
	var d *StripeDamage
	for i := range report.Stripes {
		if report.Stripes[i].Stripe == stripe {
			d = &report.Stripes[i]
			break
		}
	}
	if d == nil {
		report.Stripes = append(report.Stripes, StripeDamage{Stripe: stripe})
		sort.Slice(report.Stripes, func(i, j int) bool { return report.Stripes[i].Stripe < report.Stripes[j].Stripe })
		for i := range report.Stripes {
			if report.Stripes[i].Stripe == stripe {
				d = &report.Stripes[i]
				break
			}
		}
	}
	for _, have := range d.Corrupt {
		if have == cell {
			return
		}
	}
	d.Corrupt = mergeCell(d.Corrupt, cell)
	report.CorruptChunks++
	if mt := s.cfg.Metrics; mt != nil {
		mt.ResumedCorrupt.Inc()
		mt.ScanCorrupt.Set(float64(report.CorruptChunks))
	}
}

// service is the run state of one RunService call.
type service struct {
	cfg  *ServiceConfig
	code *codes.Code
	res  *ServiceResult
	pool *chunk.Pool

	// Byte cache: the policy decides residency (with FBF priorities
	// from each scheme), bufs mirrors its resident set with the actual
	// bytes. nil policy disables caching.
	policy cache.Policy
	bufs   map[cache.ChunkID]chunk.Chunk

	// Scheme and oracle memoization: killed whole disks damage every
	// stripe with the same cell pattern, so the (expensive) chain
	// selection and decoder elimination are shared across stripes.
	schemes map[string]*schemePlan

	// journal is the write-ahead rebuild journal, nil for unjournaled
	// runs (the default path stays byte-identical to prior releases).
	journal *Journal
}

// schemePlan caches one lost-cell pattern's generated scheme, its
// unsolvable cells, and the matching oracle.
type schemePlan struct {
	scheme   *core.Scheme
	unsolved []grid.Coord
	oracle   *verify.Oracle
}

func lostKey(lost []grid.Coord) string {
	var b strings.Builder
	for _, c := range lost {
		fmt.Fprintf(&b, "%d,%d;", c.Row, c.Col)
	}
	return b.String()
}

// planFor generates (or recalls) the recovery scheme for one sorted
// lost-cell pattern. The synthetic PartialStripeError only carries
// stripe/cell bookkeeping into the Scheme; RegenerateScheme does not
// re-validate it, which is exactly what lets the service repair
// multi-disk and whole-column damage a plain partial-stripe error
// cannot describe.
func (s *service) planFor(stripe int, lost []grid.Coord) (*schemePlan, error) {
	key := lostKey(lost)
	if p, ok := s.schemes[key]; ok {
		return p, nil
	}
	e := core.PartialStripeError{Stripe: stripe, Disk: lost[0].Col, Row: lost[0].Row, Size: len(lost)}
	scheme, unsolved, err := core.RegenerateScheme(s.code, e, lost, nil, s.cfg.Strategy)
	if err != nil {
		return nil, err
	}
	oracle, err := verify.NewOracle(s.code, lost)
	if err != nil {
		return nil, err
	}
	p := &schemePlan{scheme: scheme, unsolved: unsolved, oracle: oracle}
	if s.schemes == nil {
		s.schemes = make(map[string]*schemePlan)
	}
	s.schemes[key] = p
	return p, nil
}

// repairStripe rebuilds one damaged stripe: plan, replay each selected
// chain through the byte cache, oracle-check, write back — escalating
// and re-planning when a surviving chunk turns out unreadable, exactly
// like the simulator's fault ladder.
func (s *service) repairStripe(d StripeDamage) error {
	lost := d.Lost()
	plan, err := s.planFor(d.Stripe, lost)
	if err != nil {
		return err
	}
	if s.cfg.DryRun {
		s.res.PlannedChunks += len(plan.scheme.Selected)
		s.res.PlannedReads += plan.scheme.UniqueFetches()
		for _, c := range plan.unsolved {
			s.loseCell(d.Stripe, c)
		}
		return nil
	}
	for _, c := range plan.unsolved {
		s.loseCell(d.Stripe, c)
	}
	if s.journal != nil {
		if err := s.journal.AppendPlan(d.Stripe, lost); err != nil {
			return err
		}
		if mt := s.cfg.Metrics; mt != nil {
			mt.JournalRecords.Inc()
		}
	}

	scheme, oracle := plan.scheme, plan.oracle
	if pa, ok := s.policy.(cache.PriorityAware); ok && s.policy != nil {
		pa.SetPriorities(prioritiesFor(scheme, d.Stripe))
	}
	if fa, ok := s.policy.(cache.FutureAware); ok && s.policy != nil {
		fa.SetFuture(requestsFor(scheme, d.Stripe))
	}

	repaired := make(map[grid.Coord]bool)
	acc := s.pool.GetRaw()
	defer s.pool.Put(acc)
	// The escalation loop: a failed source read escalates that cell to
	// lost and regenerates the plan for whatever is still unrepaired.
	// Every escalation strictly grows the lost set, so the loop is
	// bounded by the stripe's cell count.
	for attempt := 0; attempt <= s.code.Layout().Cells(); attempt++ {
		esc, err := s.replayChains(d.Stripe, scheme, oracle, repaired, acc)
		if err != nil {
			return err
		}
		if esc == nil {
			if s.res.Interrupted {
				// A stop landed mid-stripe: the in-flight chunk was
				// finished, but the stripe was not — no done record, so
				// the next run resumes right here.
				return nil
			}
			if s.journal != nil {
				if err := s.journal.AppendStripeDone(d.Stripe); err != nil {
					return err
				}
				if mt := s.cfg.Metrics; mt != nil {
					mt.JournalRecords.Inc()
				}
				if err := s.journal.Sync(); err != nil {
					return err
				}
			}
			return nil
		}
		// Escalate: the cell joins the lost set; regenerate for the
		// cells still needing repair (unsolved ones are lost).
		s.res.Escalations++
		if mt := s.cfg.Metrics; mt != nil {
			mt.Escalations.Inc()
		}
		if inv, ok := s.policy.(cache.Invalidator); ok && s.policy != nil {
			if id := (cache.ChunkID{Stripe: d.Stripe, Cell: *esc}); inv.Invalidate(id) {
				s.dropBuf(id)
			}
		}
		lost = mergeCell(lost, *esc)
		var remaining []grid.Coord
		for _, c := range lost {
			if !repaired[c] {
				remaining = append(remaining, c)
			}
		}
		plan, err = s.planFor(d.Stripe, remaining)
		if err != nil {
			return err
		}
		if s.journal != nil {
			// Journal the cumulative lost set (not just the remaining
			// cells): resume verification derives its oracle from this
			// record, and the full set is what keeps already-repaired
			// cells solvable while never reading a lost source.
			if err := s.journal.AppendPlan(d.Stripe, lost); err != nil {
				return err
			}
			if mt := s.cfg.Metrics; mt != nil {
				mt.JournalRecords.Inc()
			}
		}
		s.res.Regenerations++
		if mt := s.cfg.Metrics; mt != nil {
			mt.Regenerations.Inc()
		}
		scheme, oracle = plan.scheme, plan.oracle
		for _, c := range plan.unsolved {
			s.loseCell(d.Stripe, c)
		}
	}
	return fmt.Errorf("rebuild: stripe %d: escalation loop did not terminate", d.Stripe)
}

// replayChains executes the scheme's selected chains in order. It
// returns a non-nil cell when a source read failed and the caller must
// escalate, nil when the stripe's solvable cells are all repaired.
//
// Before the first write, the GF(2) oracle derives the expected bytes of
// every cell this attempt will repair, from one backend read per
// surviving source and never through the byte cache; each chain's
// result must match them before it is written. An oracle source that
// reads as missing or corrupt escalates exactly like a chain fetch.
func (s *service) replayChains(stripe int, scheme *core.Scheme, oracle *verify.Oracle, repaired map[grid.Coord]bool, acc chunk.Chunk) (*grid.Coord, error) {
	lostSet := make(map[grid.Coord]bool)
	for _, a := range s.res.Lost {
		if a.Stripe == stripe {
			lostSet[grid.Coord{Row: a.Chunk, Col: a.Disk}] = true
		}
	}
	var todo []core.SelectedChain
	for _, sel := range scheme.Selected {
		if !repaired[sel.Lost] && !lostSet[sel.Lost] {
			todo = append(todo, sel)
		}
	}
	var expected []chunk.Chunk
	if !s.cfg.NoVerify && len(todo) > 0 {
		cells := make([]grid.Coord, len(todo))
		for i, sel := range todo {
			cells[i] = sel.Lost
		}
		var release func()
		expected, release = s.pooled(len(todo))
		defer release()
		if bad, err := s.solve(stripe, oracle, cells, expected); bad != nil || err != nil {
			return bad, err
		}
	}
	for i, sel := range todo {
		if s.stopRequested() {
			// Graceful stop between chunk repairs: everything committed
			// so far is journaled; the caller keeps the journal.
			s.res.Interrupted = true
			return nil, nil
		}
		if len(sel.Fetch) == 0 {
			clear(acc)
		}
		for j, cell := range sel.Fetch {
			err := s.fetchInto(stripe, cell, acc, j == 0)
			if err == nil {
				continue
			}
			if store.IsNotFound(err) || store.IsCorrupt(err) {
				// A chunk the scan believed healthy is unreadable —
				// the real-bytes analogue of a URE mid-rebuild.
				cell := cell
				return &cell, nil
			}
			return nil, err
		}
		if expected != nil {
			if err := verify.Agree(sel.Lost, expected[i], acc); err != nil {
				return nil, err
			}
			s.res.ChunksVerified++
			if mt := s.cfg.Metrics; mt != nil {
				mt.ChunksVerified.Inc()
			}
		}
		if err := s.cfg.Backend.WriteChunk(AddrOf(stripe, sel.Lost), acc); err != nil {
			return nil, err
		}
		if s.journal != nil {
			if err := s.journal.AppendCommit(AddrOf(stripe, sel.Lost), PayloadCRC(acc)); err != nil {
				return nil, err
			}
			if mt := s.cfg.Metrics; mt != nil {
				mt.JournalRecords.Inc()
			}
		}
		s.res.BytesWritten += int64(len(acc))
		s.res.ChunksRebuilt++
		if mt := s.cfg.Metrics; mt != nil {
			mt.BytesWritten.Add(uint64(len(acc)))
			mt.ChunksRebuilt.Inc()
			if sel.Decoded {
				mt.ChunksDecoded.Inc()
			}
		}
		if sel.Decoded {
			s.res.ChunksDecoded++
		}
		repaired[sel.Lost] = true
	}
	return nil, nil
}

// solve derives the expected bytes of cells into out through the GF(2)
// oracle, reading each distinct source once straight from the backend —
// never from the byte cache, so the check stays independent of the
// replay in its I/O as well as its math. A source that reads as missing
// or corrupt is returned rather than failing the run, so the caller can
// treat it like any other unreadable survivor.
func (s *service) solve(stripe int, oracle *verify.Oracle, cells []grid.Coord, out []chunk.Chunk) (*grid.Coord, error) {
	buf := s.pool.GetRaw()
	defer s.pool.Put(buf)
	var bad *grid.Coord
	err := oracle.Solve(cells, out, buf, func(src grid.Coord, dst chunk.Chunk) error {
		a := AddrOf(stripe, src)
		n, err := s.cfg.Backend.ReadChunk(a, dst)
		if err == nil && n != len(dst) {
			err = &store.CorruptError{Addr: a, Err: fmt.Errorf("payload is %d bytes, manifest says %d", n, len(dst))}
		}
		if err != nil {
			if store.IsNotFound(err) || store.IsCorrupt(err) {
				bad = &src
			}
			return err
		}
		s.res.VerifyReads++
		if mt := s.cfg.Metrics; mt != nil {
			mt.VerifyReads.Inc()
		}
		return nil
	})
	if bad != nil {
		return bad, nil
	}
	return nil, err
}

// pooled takes n chunk buffers from the pool and returns them with the
// function that gives them back.
func (s *service) pooled(n int) ([]chunk.Chunk, func()) {
	bufs := make([]chunk.Chunk, n)
	for i := range bufs {
		bufs[i] = s.pool.GetRaw()
	}
	return bufs, func() {
		for _, c := range bufs {
			s.pool.Put(c)
		}
	}
}

// fetchInto reads one source cell's bytes — from the byte cache on a
// hit, from the backend on a miss — and folds them into the XOR
// accumulator (copy for the chain's first member, XOR for the rest).
// Miss fetches use pooled buffers that flow directly into backend I/O;
// a buffer is kept only while the policy keeps the chunk resident.
func (s *service) fetchInto(stripe int, cell grid.Coord, acc chunk.Chunk, first bool) error {
	id := cache.ChunkID{Stripe: stripe, Cell: cell}
	if s.policy != nil && s.policy.Request(id) {
		if buf, ok := s.bufs[id]; ok {
			if mt := s.cfg.Metrics; mt != nil {
				mt.CacheHits.Inc()
			}
			fold(acc, buf, first)
			return nil
		}
		// Residency without bytes would be a bookkeeping bug; fail
		// loudly rather than reading stale data.
		return fmt.Errorf("rebuild: cache hit for %v with no buffered bytes", id)
	}
	if s.policy != nil {
		if mt := s.cfg.Metrics; mt != nil {
			mt.CacheMisses.Inc()
		}
	}
	buf := s.pool.GetRaw()
	n, err := s.cfg.Backend.ReadChunk(AddrOf(stripe, cell), buf)
	if err != nil {
		s.pool.Put(buf)
		return err
	}
	if n != s.cfg.Manifest.ChunkSize {
		s.pool.Put(buf)
		return &store.CorruptError{Addr: AddrOf(stripe, cell), Err: fmt.Errorf("payload is %d bytes, manifest says %d", n, s.cfg.Manifest.ChunkSize)}
	}
	s.res.DiskReads++
	if mt := s.cfg.Metrics; mt != nil {
		mt.DiskReads.Inc()
	}
	fold(acc, buf, first)
	if s.policy != nil && s.policy.Contains(id) {
		s.bufs[id] = buf
		s.reconcile()
	} else {
		s.pool.Put(buf)
	}
	return nil
}

// reconcile drops buffered bytes for chunks the policy has evicted,
// returning their buffers to the pool. O(resident), called per
// admission — the byte map exactly mirrors policy residency.
func (s *service) reconcile() {
	for id, buf := range s.bufs {
		if !s.policy.Contains(id) {
			s.pool.Put(buf)
			delete(s.bufs, id)
		}
	}
}

func (s *service) dropBuf(id cache.ChunkID) {
	if buf, ok := s.bufs[id]; ok {
		s.pool.Put(buf)
		delete(s.bufs, id)
	}
}

func (s *service) loseCell(stripe int, c grid.Coord) {
	a := AddrOf(stripe, c)
	for _, have := range s.res.Lost {
		if have == a {
			return
		}
	}
	s.res.Lost = append(s.res.Lost, a)
}

func fold(acc, src chunk.Chunk, first bool) {
	if first {
		copy(acc, src)
		return
	}
	chunk.XORInto(acc, src)
}

func mergeCell(lost []grid.Coord, c grid.Coord) []grid.Coord {
	for _, have := range lost {
		if have == c {
			return lost
		}
	}
	lost = append(lost, c)
	sort.Slice(lost, func(i, j int) bool { return lost[i].Less(lost[j]) })
	return lost
}

func prioritiesFor(scheme *core.Scheme, stripe int) map[cache.ChunkID]int {
	out := make(map[cache.ChunkID]int, len(scheme.Priorities))
	for cell, pr := range scheme.Priorities {
		out[cache.ChunkID{Stripe: stripe, Cell: cell}] = pr
	}
	return out
}

func requestsFor(scheme *core.Scheme, stripe int) []cache.ChunkID {
	reqs := scheme.Requests()
	out := make([]cache.ChunkID, len(reqs))
	for i, r := range reqs {
		out[i] = cache.ChunkID{Stripe: stripe, Cell: r}
	}
	return out
}
