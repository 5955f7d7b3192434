package blockreorg

import "errors"

// Typed errors returned by the public API. Servers built on this library
// (cmd/spgemmd) use them to separate client faults — bad operands or
// options, reported as HTTP 4xx — from internal faults, reported as 5xx.
// Match with errors.Is; the concrete messages carry the detail.
var (
	// ErrDimensionMismatch reports operands whose shapes cannot multiply
	// (A is m×k, B must be k×n).
	ErrDimensionMismatch = errors.New("blockreorg: dimension mismatch")
	// ErrInvalidOptions reports an Options value that cannot be executed:
	// nil operands, an unknown GPU, out-of-range tuning parameters, or a
	// supplied Plan that is not bound to the operands.
	ErrInvalidOptions = errors.New("blockreorg: invalid options")
	// ErrUnknownAlgorithm reports an Algorithm name outside Algorithms().
	ErrUnknownAlgorithm = errors.New("blockreorg: unknown algorithm")
)

// requestFault reports whether err is one of the client faults above.
func requestFault(err error) bool {
	return errors.Is(err, ErrDimensionMismatch) || errors.Is(err, ErrInvalidOptions) ||
		errors.Is(err, ErrUnknownAlgorithm)
}
