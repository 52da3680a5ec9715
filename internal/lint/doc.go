// Package lint is the repository's static-analysis suite: a set of
// golang.org/x/tools/go/analysis analyzers that turn the determinism,
// lock-free-telemetry, and zero-allocation contracts documented in the
// `# Invariants` sections of qsim/par/dist/ftdc from "a runtime test
// noticed" into "the build refuses". cmd/torq-lint packages the suite as a
// `go vet -vettool` multichecker; CI runs it as a required job, and the
// fixtures under testdata/ pin each rule's failure mode.
//
// The analyzers:
//
//   - detrange: flags `range` over a map in repository packages unless the
//     loop is a recognized order-insensitive idiom (key collection for
//     sorting, whole-map delete) — map iteration order silently breaks the
//     bit-identity family (gradient/diagT merges, checkpoint round-trips,
//     report output).
//   - nolocktelemetry: proves functions annotated //torq:nolock are
//     atomics-only — no mutexes, channels, map operations, or allocations
//     reachable through same-package calls, with cross-package calls
//     verified by exported facts — so ftdc sampling can never block or
//     perturb the computation it observes.
//   - hotalloc: functions annotated //torq:hotpath (frame codec,
//     ShardRunner shard loop, per-sample-range kernels) may not contain
//     heap-escaping composite literals, fmt calls, closures capturing by
//     reference, growing appends, or allocating conversions — compile-time
//     teeth for the 0-allocs/op benchmarks.
//   - floatbits: forbids ==/!= on floating-point or complex operands unless
//     one side is a constant or the comparison is the x != x NaN idiom,
//     steering bit-identity assertions to math.Float64bits and parity
//     assertions to tolerances.
//   - nondet: forbids wall-clock reads, the global math/rand source, and
//     GOMAXPROCS/NumCPU-shaped branching inside the numeric packages
//     (qsim/ad/opt/maxwell) where they would leak into trajectories.
//   - torqdirective: validates the //torq: directive namespace itself —
//     unknown or misplaced directives are errors, so an annotation typo
//     cannot silently disable a rule.
//   - atomicmix: a variable passed to sync/atomic anywhere in a package may
//     not also be read or written plainly — a torn access corrupts counters
//     without failing parity. Test files are exempt (join-then-inspect is
//     proven by the race job); typed atomic.* values are immune by
//     construction.
//   - mergeorder: functions annotated //torq:ordered-merge (the dist and
//     sharded dTheta/diagT/z merges, curriculum bin residuals) must
//     accumulate via index-ordered loops only — map ranges, channel
//     receives/ranges, select, and go statements are errors, because float
//     addition in arrival order breaks worker-count bit-identity.
//
// Stock() additionally bundles the standard vet passes atomic, copylocks,
// lostcancel, and unusedresult into the vettool; they ship without fixtures
// or invariant rows (upstream owns their tests), but copylocks is what backs
// atomicmix's typed-atomic exemption.
//
// # Invariants
//
// Every deliberate exception is visible in the source: a rule is only
// silenced by a `//torq:allow <rule>` comment on (or immediately above) the
// offending line, and torqdirective rejects allow comments for rules that
// do not exist. An allow that suppresses nothing is itself a finding
// ("stale allow"), so waivers cannot outlive the code they excused. The
// suite must run clean on this repository — CI enforces
// `go vet -vettool=torq-lint ./...` and surfaces findings as GitHub
// annotations via `torq-lint -github` (`-json` emits the same list as a
// machine-readable array) — and each analyzer must keep a
// deliberately-broken fixture under testdata/src/<analyzer>/ (the fixture
// gate fails if one is deleted), so the rules are pinned from both sides.
package lint
