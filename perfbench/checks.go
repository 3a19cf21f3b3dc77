package main

import (
	"errors"
	"fmt"
	"net/http"
)

// The output checks. Each returns nil when the program's output is correct
// and an error naming the discrepancy otherwise; any failure makes the
// benchmark report correct=false and exit non-zero.

// checkAccounting requires every arrival of a replay to be served or
// dropped.
func checkAccounting(arrivals int, s virtualSummary) error {
	if arrivals != s.Served+s.Dropped {
		return fmt.Errorf("arrivals %d != served %d + dropped %d", arrivals, s.Served, s.Dropped)
	}
	return nil
}

// checkSameSummary requires a fixed-seed replay to reproduce the first
// replay's virtual summary exactly.
func checkSameSummary(first, again virtualSummary) error {
	if first != again {
		return fmt.Errorf("fixed-seed replay diverged: %+v then %+v", first, again)
	}
	return nil
}

// checkResponse requires a 200 whose body decoded to a known start kind.
func checkResponse(status int, kind string, decodeErr error) error {
	switch {
	case status != http.StatusOK:
		return fmt.Errorf("status %d", status)
	case decodeErr != nil:
		return fmt.Errorf("decoding response: %w", decodeErr)
	case !knownKind(kind):
		return fmt.Errorf("unknown start_kind %q", kind)
	}
	return nil
}

// checkServed requires every request to have succeeded and /api/stats to
// count exactly the requests sent.
func checkServed(sent, failed, statsRequests int, failures []string) error {
	var errs []error
	if failed > 0 {
		errs = append(errs, fmt.Errorf("%d of %d requests failed, first: %v", failed, sent, failures))
	}
	if statsRequests != sent {
		errs = append(errs, fmt.Errorf("/api/stats requests %d != %d sent", statsRequests, sent))
	}
	return errors.Join(errs...)
}
