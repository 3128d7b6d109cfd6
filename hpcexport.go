// Package hpcexport is the public face of a full reproduction of
// Goodman, Wolcott & Burkhart, "Building on the Basics: An Examination of
// High-Performance Computing Export Control Policy in the 1990s" (CISAC,
// Stanford University, November 1995).
//
// The library models the paper's complete analytical apparatus:
//
//   - the Composite Theoretical Performance (CTP) metric, in Mtops, that
//     the export-control regime rated computers with (CTP, Element,
//     System);
//   - the mid-1990s system catalog — U.S., Japanese, and European
//     commercial machines plus the indigenous systems of Russia, the PRC,
//     and India (Catalog*);
//   - the six-factor controllability model and the uncontrollability
//     frontier it implies (Controllability*, Frontier);
//   - the Chapter 4 application-requirements database: the "stalactites"
//     of minimum computational requirements across nuclear, cryptologic,
//     conventional-weapons, and military-operations missions (App*);
//   - the basic-premises threshold framework — the paper's contribution —
//     that tests whether a viable "supercomputer" definition exists and
//     derives one (TakeSnapshot, Snapshot);
//   - the substrates that make the judgments concrete: a parallel-machine
//     simulator with period interconnects (Machine, RunSim), a
//     shallow-water forecasting cost model (WeatherScenario), a parallel
//     brute-force key search (KeySearch), and sparse solvers.
//
// Quick start:
//
//	snap, err := hpcexport.TakeSnapshot(1995.45) // June 1995
//	if err != nil { ... }
//	fmt.Println(snap.LowerBound)                 // 4,600 Mtops
//	rec, _ := snap.Recommend(hpcexport.ControlMaximal)
//
// Every numbered exhibit of the paper is regenerable: Figure(n) and
// PaperTable(n) return the data behind Figures 1–13 and Tables 1–16, and
// Appendix(n) the derived exhibits A1–A10. The Chapter 4 mission areas
// each have a live substrate behind their numbers: a Lagrangian hydrocode
// (ImpactBar), a neutron-diffusion criticality solver (SolveCriticality),
// a physical-optics radar model (RadarFacet, DesignCostCEA), the
// signature/drag tradespace (OptimizeAirframe), real-time sensor budgets
// (IRSensor), a C4I switching model (SwitchNetwork), and the parallel
// kernels of the cluster debate (KeySearch, ParallelSortFloat64s,
// RenderScene, and the mpi/mpiprog message-passing programs).
package hpcexport

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/c4i"
	"repro/internal/catalog"
	"repro/internal/controllability"
	"repro/internal/crit"
	"repro/internal/ctp"
	"repro/internal/design"
	"repro/internal/fault"
	"repro/internal/future"
	"repro/internal/glossary"
	"repro/internal/hydro"
	"repro/internal/keysearch"
	"repro/internal/nwp"
	"repro/internal/parpool"
	"repro/internal/psort"
	"repro/internal/radar"
	"repro/internal/raytrace"
	"repro/internal/regime"
	"repro/internal/report"
	"repro/internal/safeguards"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sigproc"
	"repro/internal/simmach"
	"repro/internal/threshold"
	"repro/internal/top500"
	"repro/internal/trend"
	"repro/internal/units"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ---- Units -------------------------------------------------------------

// Mtops is the CTP unit: millions of theoretical operations per second.
type Mtops = units.Mtops

// Mflops is millions of floating-point operations per second.
type Mflops = units.Mflops

// ParseMtops parses "21,125", "1500 Mtops", or "7.5k".
var ParseMtops = units.ParseMtops

// ---- CTP metric ---------------------------------------------------------

// CTP types: computing elements and rated systems.
type (
	// Element is a computing element (processor or CPU) rated by the CTP
	// rules.
	Element = ctp.Element
	// FunctionalUnit is one concurrent execution resource of an Element.
	FunctionalUnit = ctp.FunctionalUnit
	// RatedSystem is a hardware configuration whose CTP can be computed.
	RatedSystem = ctp.System
	// Interconnect describes a network joining distributed elements.
	Interconnect = ctp.Interconnect
)

// Operation kinds and memory models for CTP rating.
const (
	FixedPoint    = ctp.FixedPoint
	FloatingPoint = ctp.FloatingPoint

	SharedMemory      = ctp.SharedMemory
	DistributedMemory = ctp.DistributedMemory
)

// CTP system constructors.
var (
	// NewSMP builds a shared-memory multiprocessor for rating.
	NewSMP = ctp.SMP
	// NewMPP builds a distributed-memory machine for rating.
	NewMPP = ctp.MPP
	// NewCluster builds a workstation cluster for rating.
	NewCluster = ctp.Cluster
	// WordLengthFactor is the CTP word-length adjustment 1/3 + L/96.
	WordLengthFactor = ctp.WordLengthFactor
	// Microprocessors64 lists the dated 64-bit microprocessors of Figure 5.
	Microprocessors64 = ctp.Microprocessors64
)

// ---- System catalog ------------------------------------------------------

// Catalog types.
type (
	// CatalogSystem is one record of the study's system dataset.
	CatalogSystem = catalog.System
	// Origin is a system's designing country or bloc.
	Origin = catalog.Origin
	// SystemClass is a system's market/architecture class.
	SystemClass = catalog.Class
)

// Catalog origins.
const (
	US     = catalog.US
	Japan  = catalog.Japan
	Europe = catalog.Europe
	Russia = catalog.Russia
	PRC    = catalog.PRC
	India  = catalog.India
)

// Catalog queries.
var (
	// CatalogAll returns every system record.
	CatalogAll = catalog.All
	// CatalogLookup finds a record by name or unique substring.
	CatalogLookup = catalog.Lookup
	// CatalogIndigenous returns the systems of the countries of concern.
	CatalogIndigenous = catalog.Indigenous
	// MostPowerfulAsOf returns the top-rated system available by a year.
	MostPowerfulAsOf = catalog.MostPowerfulAsOf
)

// ---- Controllability ------------------------------------------------------

// ControllabilityFactors is the six-factor score vector.
type ControllabilityFactors = controllability.Factors

// Controllability analysis.
var (
	// ControllabilityScore computes the six factors for a system.
	ControllabilityScore = controllability.Score
	// UncontrollableKind classifies a product line.
	UncontrollableKind = controllability.UncontrollableKind
	// Frontier returns the uncontrollability frontier at a date.
	Frontier = controllability.Frontier
	// FrontierSeries samples the frontier over a date range.
	FrontierSeries = controllability.FrontierSeries
)

// FrontierOptions configures Frontier and FrontierSeries.
type FrontierOptions = controllability.Options

// MaturationLag is the introduction→uncontrollability lag in years.
const MaturationLag = controllability.MaturationLag

// ---- Applications ----------------------------------------------------------

// Application types.
type (
	// Application is one curated Chapter 4 application record.
	Application = apps.Application
	// AppMission is the broad mission group of an application.
	AppMission = apps.Mission
	// AppGranularity classifies an application's parallel structure.
	AppGranularity = apps.Granularity
)

// Application missions.
const (
	NuclearWeapons     = apps.NuclearWeapons
	Cryptology         = apps.Cryptology
	ACW                = apps.ACW
	MilitaryOperations = apps.MilitaryOperations
)

// Application queries.
var (
	// Applications returns every curated application.
	Applications = apps.All
	// AppLookup finds an application by name.
	AppLookup = apps.Lookup
	// AppsAboveBound returns applications whose minima exceed a bound.
	AppsAboveBound = apps.AboveBound
)

// ---- The threshold framework (the paper's contribution) -------------------

// Framework types.
type (
	// Snapshot is one dated application of the basic-premises framework.
	Snapshot = threshold.Snapshot
	// AppCluster is a dense group of application minima above the bound.
	AppCluster = threshold.Cluster
	// PremiseStatus is the finding on one basic premise.
	PremiseStatus = threshold.PremiseStatus
	// Perspective selects a threshold-choice basis.
	Perspective = threshold.Perspective
)

// Threshold-selection perspectives.
const (
	ControlMaximal    = threshold.ControlMaximal
	ApplicationDriven = threshold.ApplicationDriven
	Balanced          = threshold.Balanced
)

// ReviewEntry is one year's entry of the recommended annual review.
type ReviewEntry = threshold.ReviewEntry

// Framework entry points.
var (
	// TakeSnapshot applies the framework at a fractional year.
	TakeSnapshot = threshold.Take
	// ForeignCapability evaluates Table 16 at a date.
	ForeignCapability = threshold.Table16
	// CoverageBelowFrontier measures premise-one erosion at a date.
	CoverageBelowFrontier = threshold.CoverageBelowFrontier
	// AnnualReview runs the recommended yearly review procedure.
	AnnualReview = threshold.Review
)

// ---- Substrates -------------------------------------------------------------

// Simulation types.
type (
	// Machine is a simulated parallel computer.
	Machine = simmach.Machine
	// SimResult reports a simulated run.
	SimResult = simmach.Result
	// Workload is a bulk-synchronous workload for the simulator.
	Workload = simmach.Workload
	// WeatherScenario is a forecasting configuration for the cost model.
	WeatherScenario = nwp.Scenario
	// KeyPair is one known plaintext/ciphertext pair for key search.
	KeyPair = keysearch.Pair
)

// Substrate entry points.
var (
	// SimFleet returns the Table 5 machine spectrum at a processor count.
	SimFleet = simmach.Fleet
	// RunSim executes a workload on a machine.
	RunSim = simmach.Run
	// WorkloadSuite returns the standard granularity-spanning workloads.
	WorkloadSuite = workload.Suite
	// WeatherScenarios returns the paper's forecasting scenarios.
	WeatherScenarios = nwp.Scenarios
	// KeySearch runs the parallel brute-force attack.
	KeySearch = keysearch.Search
	// MakeKeyPairs builds known pairs for a search exercise.
	MakeKeyPairs = keysearch.MakePairs
	// Top500List generates the synthetic installation list for a year.
	Top500List = top500.Generate
)

// ---- Exhibits ----------------------------------------------------------------

// Exhibit is a regenerated table or figure.
type Exhibit = report.Table

// Figure regenerates the data behind paper Figure n (1–13).
func Figure(n int) (*Exhibit, error) {
	builders := report.Figures()
	if n < 1 || n > len(builders) {
		return nil, fmt.Errorf("hpcexport: no figure %d (have 1–%d)", n, len(builders))
	}
	return builders[n-1]()
}

// PaperTable regenerates the data behind paper Table n (1–16).
func PaperTable(n int) (*Exhibit, error) {
	builders := report.Tables()
	if n < 1 || n > len(builders) {
		return nil, fmt.Errorf("hpcexport: no table %d (have 1–%d)", n, len(builders))
	}
	return builders[n-1]()
}

// Appendix regenerates the data behind appendix exhibit An (1–10): the
// derived exhibits quantifying claims the paper's prose makes.
func Appendix(n int) (*Exhibit, error) {
	builders := report.Extras()
	if n < 1 || n > len(builders) {
		return nil, fmt.Errorf("hpcexport: no appendix exhibit %d (have 1–%d)", n, len(builders))
	}
	return builders[n-1]()
}

// ---- Licensing regime --------------------------------------------------------

// Licensing types.
type (
	// ExportLicense is one license application under the regime.
	ExportLicense = safeguards.License
	// LicenseDecision is the regime's disposition of an application.
	LicenseDecision = safeguards.Decision
	// DestinationTier is a destination's treatment class.
	DestinationTier = safeguards.Tier
	// PolicyEvent is one episode of the regime's history.
	PolicyEvent = regime.Event
)

// Licensing entry points.
var (
	// EvaluateLicense applies the regime to an application under a threshold.
	EvaluateLicense = safeguards.Evaluate
	// TierOf returns a destination's treatment class.
	TierOf = safeguards.TierOf
	// PolicyTimeline returns the Chapter 1 policy history.
	PolicyTimeline = regime.Timeline
	// ThresholdInForce returns the control threshold in legal force at a
	// date.
	ThresholdInForce = regime.ThresholdInForce
)

// ---- The query service -------------------------------------------------------

// Service types: the hpcexportd daemon's server and its typed Go client.
type (
	// ServeConfig configures a query-service Server.
	ServeConfig = serve.Config
	// Server is the framework query service (the hpcexportd daemon's
	// engine): license decisions, dataset queries, and threshold
	// snapshots over HTTP JSON, backed by memoized substrates and LRU
	// caches.
	Server = serve.Server
	// ServiceClient is the typed Go client for a running query service.
	ServiceClient = client.Client
	// ServiceClientOptions configures a ServiceClient's transport and
	// resilience policy (retries, backoff, circuit breaker, timeouts).
	ServiceClientOptions = client.Options
	// ServiceLicenseRequest is one license query against the service.
	ServiceLicenseRequest = serve.LicenseRequest
	// FaultProfile is a per-route fault mix for deterministic injection.
	FaultProfile = fault.Profile
	// FaultPlan deals a profile's faults as a seed-reproducible schedule;
	// mount one via ServeConfig.Fault.
	FaultPlan = fault.Plan
	// DecisionLog is the durable decision audit log (hpcwal); mount one
	// via ServeConfig.WAL for warm-start replay and /v1/watch.
	DecisionLog = wal.Log
	// DecisionLogOptions configures a DecisionLog (directory, segment
	// size, fsync policy).
	DecisionLogOptions = wal.Options
	// FsyncPolicy sets the log's durability barrier: always, never, or
	// every N records.
	FsyncPolicy = wal.FsyncPolicy
	// WatchEvent is one /v1/watch event: a threshold-regime transition
	// between committed decisions, an injected fault/degraded notice, or
	// an SLO state change.
	WatchEvent = serve.WatchEvent
)

// Query-service entry points.
var (
	// NewServer builds a query service from a ServeConfig.
	NewServer = serve.New
	// NewServiceClient builds a client for a service base URL.
	NewServiceClient = client.New
	// NewServiceClientWithOptions builds a client with an explicit
	// resilience policy.
	NewServiceClientWithOptions = client.NewWithOptions
	// ParseFaultProfile parses a fault preset or spec string.
	ParseFaultProfile = fault.Parse
	// NewFaultPlan binds a fault profile to a seed.
	NewFaultPlan = fault.NewPlan
	// OpenDecisionLog opens (or creates) a durable decision log in a
	// directory, recovering any prior records.
	OpenDecisionLog = wal.Open
	// ParseFsyncPolicy parses "always", "never", or "every=N".
	ParseFsyncPolicy = wal.ParseFsyncPolicy
)

// TrendSeries re-exports the trend machinery for custom analyses.
type TrendSeries = trend.Series

// TrendPoint is one dated observation of a trend series.
type TrendPoint = trend.Point

// FitExponential fits a growth curve to dated observations.
var FitExponential = trend.FitExponential

// ---- Mission substrates --------------------------------------------------------

// Substrate types for the Chapter 4 mission areas.
type (
	// ImpactBar is the 1-D Lagrangian hydrocode mesh (survivability and
	// lethality).
	ImpactBar = hydro.Bar
	// ImpactMaterial is an elastic-plastic solid for the hydrocode.
	ImpactMaterial = hydro.Material
	// FissileMaterial is a one-group medium for criticality calculations.
	FissileMaterial = crit.Material
	// RadarFacet is a flat plate for physical-optics RCS evaluation.
	RadarFacet = radar.Facet
	// AirframeDesign is one candidate of the signature/drag tradespace.
	AirframeDesign = design.Design
	// IRSensor is a real-time sensor budget (air defense).
	IRSensor = sigproc.Sensor
	// SwitchNetwork is a chain of C4I message switches.
	SwitchNetwork = c4i.Network
	// RenderScene is a ray-traceable world (the replicated-problem
	// workload).
	RenderScene = raytrace.Scene
	// WorkerPool is the persistent fork-join runtime shared by every
	// parallel substrate: a sense-reversing barrier pool whose results
	// are bit-identical at any worker count.
	WorkerPool = parpool.Pool
)

// NewWorkerPool builds a WorkerPool; workers <= 0 means GOMAXPROCS.
var NewWorkerPool = parpool.New

// Substrate entry points for the mission areas.
var (
	// NewImpactBar builds a hydrocode mesh.
	NewImpactBar = hydro.NewBar
	// SolveCriticality runs the k-eigenvalue power iteration.
	SolveCriticality = crit.Solve
	// DesignCostCEA estimates the shaping-analysis cost and regime.
	DesignCostCEA = radar.DesignCost
	// OptimizeAirframe runs the simultaneous signature/drag sweep.
	OptimizeAirframe = design.OptimizeSimultaneous
	// ProjectOutlook runs the Chapter 6 long-term projection.
	ProjectOutlook = future.Project
	// ParallelSortFloat64s is the database-activities kernel.
	ParallelSortFloat64s = psort.Float64s
	// GlossaryLookup expands a paper acronym (Appendix A).
	GlossaryLookup = glossary.Lookup
)
