// Package rc exercises the rowsclose lifecycle analyzer.
package rc

import "rox"

// leak exhausts the cursor but never finishes it on the success path.
func leak(q string) error {
	rows, err := rox.Execute(q) // want `rows returned by Execute may reach the end of the function without Close or All`
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	return rows.Err()
}

// closed is the canonical form: defer Close right after the error check.
func closed(q string) error {
	rows, err := rox.Execute(q)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

// drained finishes through the self-closing All.
func drained(q string) ([]string, error) {
	rows, err := rox.Execute(q)
	if err != nil {
		return nil, err
	}
	return rows.All()
}

// collected finishes through the self-closing Collect drain.
func collected(q string) ([]string, error) {
	rows, err := rox.Execute(q)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// escapes hands the cursor to the caller: their lifecycle now.
func escapes(q string) *rox.Rows {
	rows := rox.Stream(q)
	return rows
}

// errConsumedInCall is the server shape: the error branch hands err to a
// helper and bare-returns; the cursor is nil there.
func errConsumedInCall(q string) {
	rows, err := rox.Execute(q)
	if err != nil {
		logf("execute: %v", err)
		return
	}
	defer rows.Close()
}

// blank discards the cursor at birth.
func blank(q string) {
	_, _ = rox.Execute(q) // want `assigned to the blank identifier`
}

// discard drops the result expression on the floor.
func discard(q string) {
	rox.Stream(q) // want `result of Stream discarded`
}

// conditional closes on one path only.
func conditional(q string, keep bool) {
	rows := rox.Stream(q) // want `may reach the end of the function without Close or All`
	if keep {
		rows.Close()
	}
}

func logf(format string, args ...any) {}

var (
	_ = leak
	_ = closed
	_ = drained
	_ = collected
	_ = escapes
	_ = errConsumedInCall
	_ = blank
	_ = discard
	_ = conditional
)
