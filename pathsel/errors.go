package pathsel

import (
	"errors"
	"fmt"

	"repro/internal/exec"
)

// Typed sentinels for every error class pathsel returns. Each error the
// package produces wraps exactly one of these, so callers dispatch with
// errors.Is instead of matching message text.
var (
	// ErrNoLabels rejects a graph with an empty label vocabulary.
	ErrNoLabels = errors.New("pathsel: a graph needs at least one edge label")
	// ErrDuplicateLabel rejects a graph whose label vocabulary names one
	// label twice: a name must resolve to exactly one label.
	ErrDuplicateLabel = errors.New("pathsel: duplicate label name")
	// ErrBadLabelName rejects a label name no pattern can address: one
	// that is empty, is `*`, contains '/', '|', '(' or ')', or ends in '?'
	// or '}' — the grammar reads those as syntax.
	ErrBadLabelName = errors.New("pathsel: label name is pattern syntax")
	// ErrUnknownLabel reports a label name absent from the graph's
	// vocabulary, wherever names are resolved (AddEdge, path queries,
	// patterns).
	ErrUnknownLabel = errors.New("pathsel: unknown label")
	// ErrEmptyPath rejects an empty path query or pattern.
	ErrEmptyPath = errors.New("pathsel: empty path query")
	// ErrPathTooLong reports a query (or pattern expansion) longer than
	// the estimator's covered length (Config.MaxPathLength).
	ErrPathTooLong = errors.New("pathsel: path longer than MaxPathLength")
	// ErrVertexRange reports an edge endpoint outside [0, NumVertices).
	ErrVertexRange = errors.New("pathsel: vertex outside range")
	// ErrBadConfig reports an invalid Config passed to Build.
	ErrBadConfig = errors.New("pathsel: invalid configuration")
	// ErrBadPattern reports a pattern outside the grammar (a malformed
	// segment or repetition, or one that may match the empty path), a
	// path query the grammar reads as more than one label path (an
	// alternation "a|b", a wildcard, a repetition, an optional label), and
	// a pattern whose exact evaluation would expand to too many paths.
	ErrBadPattern = errors.New("pathsel: invalid pattern")
	// ErrBadSnapshot reports a synopsis blob LoadEstimator refuses: one
	// that is truncated, breaks a bound or check of the codec, or names a
	// label NewGraphChecked would refuse — it then also wraps
	// ErrBadLabelName or ErrDuplicateLabel.
	ErrBadSnapshot = errors.New("pathsel: corrupt estimator snapshot")
	// ErrUnknownDataset reports a dataset name GenerateDataset does not
	// know.
	ErrUnknownDataset = errors.New("pathsel: unknown dataset")

	// ErrCancelled reports a query aborted by its context being
	// cancelled (explicitly, not by deadline).
	ErrCancelled = errors.New("pathsel: query cancelled")
	// ErrDeadlineExceeded reports a query killed mid-flight by its
	// context deadline.
	ErrDeadlineExceeded = errors.New("pathsel: query deadline exceeded")
	// ErrBudgetExceeded reports a query killed because a materialized
	// relation outgrew Config.MaxResultBytes.
	ErrBudgetExceeded = errors.New("pathsel: result size budget exceeded")
	// ErrAdmissionDenied reports a query rejected before execution by the
	// Config.MaxResultBytes size projection. internal/serve wraps it for
	// its own cost gate too, so both refusals answer alike.
	ErrAdmissionDenied = errors.New("pathsel: query rejected by admission control")
	// ErrExecutionFailed reports an execution that failed for a reason
	// other than cancellation — a contained worker panic. The wrapped
	// chain retains the execution layer's error for diagnosis.
	ErrExecutionFailed = errors.New("pathsel: query execution failed")
)

// translateExecErr maps the execution layer's typed abort causes onto the
// package's public sentinels. Contained panics (and any other unexpected
// failure) come back wrapping both ErrExecutionFailed and the original
// error, so diagnostic detail survives the translation.
func translateExecErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, exec.ErrDeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, exec.ErrBudgetExceeded):
		return ErrBudgetExceeded
	case errors.Is(err, exec.ErrCancelled):
		return ErrCancelled
	default:
		return fmt.Errorf("%w: %w", ErrExecutionFailed, err)
	}
}
