// Package rox is a testdata stand-in exposing the Rows cursor surface the
// analyzer matches on (package name "rox", type name "Rows").
package rox

// Rows is a streaming cursor.
type Rows struct{}

func (r *Rows) Next() bool                 { return false }
func (r *Rows) Item() string               { return "" }
func (r *Rows) Err() error                 { return nil }
func (r *Rows) Close() error               { return nil }
func (r *Rows) All() ([]string, error)     { return nil, nil }
func (r *Rows) Collect() ([]string, error) { return nil, nil }

// Execute yields a cursor and an error, like the engine's Execute.
func Execute(q string) (*Rows, error) { return &Rows{}, nil }

// Stream yields just a cursor.
func Stream(q string) *Rows { return &Rows{} }
