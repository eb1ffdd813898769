package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSVBuffered is the original csv.ReadAll-based reader, kept as the
// correctness oracle for the streaming reader: the differential and
// fuzz tests require ReadCSVOptions to reproduce its output (and its
// errors) exactly.
func ReadCSVBuffered(rd io.Reader, name string, header bool) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV for %q: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: CSV for %q is empty", name)
	}
	var names []string
	if header {
		names = records[0]
		records = records[1:]
	} else {
		names = make([]string, len(records[0]))
		for i := range names {
			names[i] = "c" + strconv.Itoa(i)
		}
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: CSV for %q has a header but no rows", name)
	}
	width := len(names)
	for i, rec := range records {
		if len(rec) != width {
			return nil, fmt.Errorf("dataset: CSV for %q: row %d has %d fields, want %d",
				name, i+1, len(rec), width)
		}
	}
	cols := make([]*Column, width)
	for j := 0; j < width; j++ {
		raw := make([]string, len(records))
		for i, rec := range records {
			raw[i] = strings.TrimSpace(rec[j])
		}
		cols[j] = inferColumn(names[j], raw)
	}
	return NewRelation(name, cols)
}
