package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/units"
)

// CTPValue is an Mtops quantity as it appears in API requests: either a
// JSON number (21125) or a string in the notation the paper and the
// Federal Register use ("21,125", "1500 Mtops", "4.5k"). It marshals back
// as a plain number.
type CTPValue float64

// UnmarshalJSON accepts a number or a ParseMtops-format string.
func (c *CTPValue) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		m, err := units.ParseMtops(s)
		if err != nil {
			return err
		}
		*c = CTPValue(m)
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*c = CTPValue(f)
	return nil
}

// MarshalJSON renders the value as a plain JSON number. Non-finite values
// (which encoding/json cannot represent) are reported as an error rather
// than panicking deep in the encoder.
func (c CTPValue) MarshalJSON() ([]byte, error) {
	v := float64(c)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("serve: non-finite CTP value")
	}
	return []byte(strconv.FormatFloat(v, 'g', -1, 64)), nil
}

// LicenseRequest is one license query: the system under application
// (named from the catalog, or given directly as a CTP rating), the
// destination, and optionally the end use, the threshold to apply, and
// the date whose threshold-in-force should apply when no explicit
// threshold is given. Exactly one of System and CTP must be set.
type LicenseRequest struct {
	System      string   `json:"system,omitempty"`
	CTP         CTPValue `json:"ctp,omitempty"`
	Destination string   `json:"destination"`
	EndUse      string   `json:"endUse,omitempty"`
	Threshold   CTPValue `json:"threshold,omitempty"`
	Date        float64  `json:"date,omitempty"`
}

// Values encodes the request as /v1/license GET query parameters.
func (r LicenseRequest) Values() url.Values {
	v := url.Values{}
	if r.System != "" {
		v.Set("system", r.System)
	}
	if r.CTP != 0 {
		v.Set("ctp", strconv.FormatFloat(float64(r.CTP), 'g', -1, 64))
	}
	v.Set("dest", r.Destination)
	if r.EndUse != "" {
		v.Set("endUse", r.EndUse)
	}
	if r.Threshold != 0 {
		v.Set("threshold", strconv.FormatFloat(float64(r.Threshold), 'g', -1, 64))
	}
	if r.Date != 0 {
		v.Set("date", strconv.FormatFloat(r.Date, 'g', -1, 64))
	}
	return v
}

// LicenseResponse is the regime's disposition of one license query.
type LicenseResponse struct {
	System         string   `json:"system,omitempty"` // catalog name, when resolved
	Destination    string   `json:"destination"`
	EndUse         string   `json:"endUse,omitempty"`
	Tier           string   `json:"tier"`
	CTPMtops       float64  `json:"ctpMtops"`
	ThresholdMtops float64  `json:"thresholdMtops"`
	Outcome        string   `json:"outcome"`
	Safeguards     []string `json:"safeguards,omitempty"`
	Rationale      string   `json:"rationale"`
}

// BatchRequest is a batched license query.
type BatchRequest struct {
	Requests []LicenseRequest `json:"requests"`
}

// BatchItem is the disposition of one request of a batch: a decision, or
// the error that request produced. Requests are independent; one bad item
// does not fail the batch.
type BatchItem struct {
	Decision *LicenseResponse `json:"decision,omitempty"`
	Error    string           `json:"error,omitempty"`
}

// BatchResponse answers a batched license query in request order.
type BatchResponse struct {
	Decisions []BatchItem `json:"decisions"`
}

// SystemDTO is one catalog record as the API serves it.
type SystemDTO struct {
	Name          string  `json:"name"`
	Vendor        string  `json:"vendor"`
	Origin        string  `json:"origin"`
	Class         string  `json:"class"`
	Year          int     `json:"year"`
	CTPMtops      float64 `json:"ctpMtops"`
	PeakMflops    float64 `json:"peakMflops,omitempty"`
	Processors    int     `json:"processors,omitempty"`
	Processor     string  `json:"processor,omitempty"`
	EntryPriceUSD float64 `json:"entryPriceUSD,omitempty"`
	Installed     int     `json:"installed"`
	Channel       string  `json:"channel"`
	Upgradable    bool    `json:"upgradable"`
	Size          string  `json:"size"`
	Source        string  `json:"source"`
}

// CatalogQuery selects catalog records. Zero fields do not filter.
type CatalogQuery struct {
	Origin     string  // origin name: us, japan, europe, russia, prc, india
	Class      string  // class substring: vector, MPP, SMP, cluster, ...
	Name       string  // name substring
	MinCTP     float64 // lowest CTP, Mtops
	MaxCTP     float64 // highest CTP, Mtops (0 = unbounded)
	Year       float64 // only systems introduced in or before this year
	Indigenous bool    // only the systems of the countries of concern
}

// Values encodes the query as /v1/catalog parameters.
func (q CatalogQuery) Values() url.Values {
	v := url.Values{}
	if q.Origin != "" {
		v.Set("origin", q.Origin)
	}
	if q.Class != "" {
		v.Set("class", q.Class)
	}
	if q.Name != "" {
		v.Set("name", q.Name)
	}
	if q.MinCTP != 0 {
		v.Set("minctp", strconv.FormatFloat(q.MinCTP, 'g', -1, 64))
	}
	if q.MaxCTP != 0 {
		v.Set("maxctp", strconv.FormatFloat(q.MaxCTP, 'g', -1, 64))
	}
	if q.Year != 0 {
		v.Set("year", strconv.FormatFloat(q.Year, 'g', -1, 64))
	}
	if q.Indigenous {
		v.Set("indigenous", "true")
	}
	return v
}

// CatalogResponse answers a catalog query.
type CatalogResponse struct {
	Count   int         `json:"count"`
	Systems []SystemDTO `json:"systems"`
}

// AppDTO is one Chapter 4 application record as the API serves it.
type AppDTO struct {
	Name        string   `json:"name"`
	Mission     string   `json:"mission"`
	Area        string   `json:"area"`
	CTAs        []string `json:"ctas,omitempty"`
	MinMtops    float64  `json:"minMtops"`
	ActualMtops float64  `json:"actualMtops,omitempty"`
	ActualName  string   `json:"actualSystem,omitempty"`
	FirstYear   int      `json:"firstYear,omitempty"`
	RealTime    bool     `json:"realTime"`
	Deployed    bool     `json:"deployed"`
	Granularity string   `json:"granularity"`
	MemoryBound bool     `json:"memoryBound"`
	Source      string   `json:"source"`
}

// AppsQuery selects application records. Zero fields do not filter;
// Deployed and RealTime are tri-state strings ("", "true", "false").
type AppsQuery struct {
	Mission  string  // mission substring: nuclear, cryptology, conventional, operations
	Deployed string  // "true" for operational systems, "false" for RDT&E
	RealTime string  // "true"/"false"
	MinMtops float64 // only applications whose minimum is at least this
	MaxMtops float64 // only applications whose minimum is at most this (0 = unbounded)
}

// Values encodes the query as /v1/apps parameters.
func (q AppsQuery) Values() url.Values {
	v := url.Values{}
	if q.Mission != "" {
		v.Set("mission", q.Mission)
	}
	if q.Deployed != "" {
		v.Set("deployed", q.Deployed)
	}
	if q.RealTime != "" {
		v.Set("realtime", q.RealTime)
	}
	if q.MinMtops != 0 {
		v.Set("min", strconv.FormatFloat(q.MinMtops, 'g', -1, 64))
	}
	if q.MaxMtops != 0 {
		v.Set("max", strconv.FormatFloat(q.MaxMtops, 'g', -1, 64))
	}
	return v
}

// AppsResponse answers an applications query.
type AppsResponse struct {
	Count        int      `json:"count"`
	Applications []AppDTO `json:"applications"`
}

// PremiseDTO is the finding on one basic premise.
type PremiseDTO struct {
	Premise  string  `json:"premise"`
	Holds    bool    `json:"holds"`
	Strength float64 `json:"strength"`
	Evidence string  `json:"evidence"`
}

// RangeDTO is the valid threshold range, when one exists.
type RangeDTO struct {
	LoMtops float64 `json:"loMtops"`
	HiMtops float64 `json:"hiMtops"`
}

// ClusterDTO summarizes one application cluster above the lower bound.
type ClusterDTO struct {
	Category    string  `json:"category"`
	StartMtops  float64 `json:"startMtops"`
	EndMtops    float64 `json:"endMtops"`
	Apps        int     `json:"apps"`
	Significant bool    `json:"significant"`
}

// RecommendationDTO is the framework's threshold under one perspective.
type RecommendationDTO struct {
	Perspective string  `json:"perspective"`
	Mtops       float64 `json:"mtops"`
}

// ProjectionDTO is the frontier growth fit and its forward projections.
type ProjectionDTO struct {
	Formula      string             `json:"formula"`
	AnnualFactor float64            `json:"annualFactor"`
	DoublingTime float64            `json:"doublingTimeYears"`
	Reaches      []ProjectionTarget `json:"reaches,omitempty"`
}

// ProjectionTarget is the projected year the frontier reaches one level.
type ProjectionTarget struct {
	Mtops float64 `json:"mtops"`
	Year  float64 `json:"year"`
}

// ThresholdResponse is one dated application of the basic-premises
// framework — the /v1/threshold answer.
type ThresholdResponse struct {
	Date               float64             `json:"date"`
	LowerBoundMtops    float64             `json:"lowerBoundMtops"`
	LowerBoundSystem   string              `json:"lowerBoundSystem"`
	MaxAvailableMtops  float64             `json:"maxAvailableMtops"`
	MaxAvailableSystem string              `json:"maxAvailableSystem"`
	Premises           []PremiseDTO        `json:"premises"`
	Valid              bool                `json:"valid"`
	Range              *RangeDTO           `json:"range,omitempty"`
	Clusters           []ClusterDTO        `json:"clusters"`
	Recommendations    []RecommendationDTO `json:"recommendations,omitempty"`
	InstallHistogram   []int               `json:"installHistogram"`
	AppHistogram       []int               `json:"appHistogram"`
	Projection         *ProjectionDTO      `json:"projection,omitempty"`
}

// HealthResponse is the /v1/healthz answer. Status is "ok", or
// "degraded" once a mounted fault plan has forced any cache-bypassed
// response; Faults is present only while a fault plan is mounted.
type HealthResponse struct {
	Status        string      `json:"status"`
	UptimeSeconds float64     `json:"uptimeSeconds"`
	Requests      uint64      `json:"requests"`
	InFlight      int         `json:"inFlight"`
	Decisions     CacheStats  `json:"decisionCache"`
	Snapshots     CacheStats  `json:"snapshotCache"`
	Faults        *FaultStats `json:"faults,omitempty"`
	WAL           *WALHealth  `json:"wal,omitempty"`
}

// WALHealth is the decision log's accounting as /v1/healthz reports it,
// present only while a log is mounted: the log's own operation counters,
// the warm-start replay outcome, and the watch-stream state. Replayed
// counts the entries warm start admitted, at most the decision cache's
// capacity; Mismatches counts the records it examined, each key's
// newest among the keys the cache can hold, that failed to verify.
type WALHealth struct {
	Appends       uint64 `json:"appends"`
	Fsyncs        uint64 `json:"fsyncs"`
	Rotations     uint64 `json:"rotations"`
	Compactions   uint64 `json:"compactions"`
	Segment       uint64 `json:"segment"`
	Replayed      uint64 `json:"replayed"`
	Mismatches    uint64 `json:"replayMismatches"`
	AppendErrors  uint64 `json:"appendErrors"`
	TornRecords   int    `json:"tornRecords"`
	CorruptRecs   int    `json:"corruptRecords"`
	Watchers      int    `json:"watchers"`
	DroppedEvents uint64 `json:"droppedEvents"`
}

// TracesResponse is the /v1/traces answer: the span trees of the
// requests in the flight recorder's live ring, newest first.
type TracesResponse struct {
	Count  int         `json:"count"`
	Traces []obs.Trace `json:"traces"`
}

// SLOResponse is the /v1/slo answer: the mounted profile in its
// canonical spec form plus one fresh read-at-request evaluation (the
// instant, and per route, per signal, the burn rate and remaining budget
// of every window alongside the ok/warn/page verdict).
type SLOResponse struct {
	Profile string `json:"profile"`
	slo.Evaluation
}

// FlightRecResponse is the /v1/flightrec answer: the flight recorder's
// live capture ring newest-first, plus the pinned anomaly groups —
// captures frozen when an anomaly fired, preserved across ring wrap —
// oldest first.
type FlightRecResponse struct {
	Count    int            `json:"count"`
	Captures []obs.Capture  `json:"captures"`
	Pins     []obs.PinGroup `json:"pins"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}
