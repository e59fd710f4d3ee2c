package task

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fpgasched/internal/timeunit"
)

// jsonTask is the wire form of Task: durations as decimal strings so files
// stay exact and human-editable. setDecoder parses into it; the tags
// document the field names.
type jsonTask struct {
	Name string `json:"name,omitempty"`
	C    string `json:"c"`
	D    string `json:"d"`
	T    string `json:"t"`
	A    int    `json:"a"`
}

// MarshalJSON implements json.Marshaler for Task.
func (t Task) MarshalJSON() ([]byte, error) {
	return appendTaskJSON(make([]byte, 0, 64), t), nil
}

// UnmarshalJSON implements json.Unmarshaler for Task with the strict
// one-pass parser Set.UnmarshalJSON runs on each element of "tasks", so
// an unknown field (a typoed "area" for "a") fails loudly instead of
// yielding a zero value — encoding/json does not propagate
// DisallowUnknownFields into custom unmarshalers. The parser counts
// nesting as inside a set, two levels deeper than a bare task sits; that
// moves encoding/json's depth limit only inside a value the task rejects
// anyway. On error the receiver is left unchanged.
func (t *Task) UnmarshalJSON(data []byte) error {
	d := setDecoder{data: data}
	jt, bad, err := d.task()
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	tk, err := jt.task()
	if err != nil {
		return err
	}
	*t = tk
	return nil
}

// task converts the wire form to a Task, naming the field of a bad
// duration.
func (jt *jsonTask) task() (Task, error) {
	c, err := timeunit.Parse(jt.C)
	if err != nil {
		return Task{}, fmt.Errorf("task %q: field c: %w", jt.Name, err)
	}
	d, err := timeunit.Parse(jt.D)
	if err != nil {
		return Task{}, fmt.Errorf("task %q: field d: %w", jt.Name, err)
	}
	tt, err := timeunit.Parse(jt.T)
	if err != nil {
		return Task{}, fmt.Errorf("task %q: field t: %w", jt.Name, err)
	}
	return Task{Name: jt.Name, C: c, D: d, T: tt, A: jt.A}, nil
}

// MarshalJSON implements json.Marshaler for Set. It appends the compact
// form {"tasks":[...]} directly ("tasks":[] for an empty set): the bytes
// encoding/json produces for a struct with a []jsonTask "tasks" field.
func (s *Set) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16+64*len(s.Tasks))
	b = append(b, `{"tasks":[`...)
	for i, t := range s.Tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendTaskJSON(b, t)
	}
	return append(b, "]}"...), nil
}

// appendTaskJSON appends the compact wire form of t, field for field
// what encoding/json writes for jsonTask.
func appendTaskJSON(b []byte, t Task) []byte {
	b = append(b, '{')
	if t.Name != "" {
		b = append(b, `"name":`...)
		b = appendJSONString(b, t.Name)
		b = append(b, ',')
	}
	b = append(b, `"c":"`...)
	b = t.C.AppendText(b)
	b = append(b, `","d":"`...)
	b = t.D.AppendText(b)
	b = append(b, `","t":"`...)
	b = t.T.AppendText(b)
	b = append(b, `","a":`...)
	b = strconv.AppendInt(b, int64(t.A), 10)
	return append(b, '}')
}

// appendJSONString appends s as a JSON string literal escaped exactly
// as encoding/json escapes it (HTML-safe). Printable ASCII other than
// " \ < > & is copied as is; any other name goes through encoding/json
// itself, so the rare escaped name cannot drift from the standard
// library's rules.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// UnmarshalJSON implements json.Unmarshaler for Set with a one-pass
// strict parser (see setDecoder for the rules it shares with
// encoding/json). On error the receiver is left unchanged.
func (s *Set) UnmarshalJSON(data []byte) error {
	d := setDecoder{data: data}
	tasks, err := d.set()
	if err != nil {
		return err
	}
	s.Tasks = tasks
	return nil
}

// WriteJSON writes the set to w as indented JSON.
func (s *Set) WriteJSON(w io.Writer) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

// ReadJSON parses a Set from r.
func ReadJSON(r io.Reader) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := s.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return &s, nil
}

// csvHeader is the column order for CSV (de)serialisation.
var csvHeader = []string{"name", "c", "d", "t", "a"}

// WriteCSV writes the set to w as CSV with a header row.
func (s *Set) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, t := range s.Tasks {
		rec := []string{t.Name, t.C.String(), t.D.String(), t.T.String(), strconv.Itoa(t.A)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a Set from CSV with the header produced by WriteCSV.
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("taskset csv: reading header: %w", err)
	}
	idx := make(map[string]int, len(header))
	for i, h := range header {
		idx[strings.ToLower(strings.TrimSpace(h))] = i
	}
	for _, want := range csvHeader[1:] { // name is optional
		if _, ok := idx[want]; !ok {
			return nil, fmt.Errorf("taskset csv: missing column %q", want)
		}
	}
	var s Set
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("taskset csv line %d: %w", line, err)
		}
		var t Task
		if i, ok := idx["name"]; ok && i < len(rec) {
			t.Name = rec[i]
		}
		if t.C, err = timeunit.Parse(rec[idx["c"]]); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column c: %w", line, err)
		}
		if t.D, err = timeunit.Parse(rec[idx["d"]]); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column d: %w", line, err)
		}
		if t.T, err = timeunit.Parse(rec[idx["t"]]); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column t: %w", line, err)
		}
		if t.A, err = strconv.Atoi(strings.TrimSpace(rec[idx["a"]])); err != nil {
			return nil, fmt.Errorf("taskset csv line %d: column a: %w", line, err)
		}
		s.Tasks = append(s.Tasks, t)
	}
	return &s, nil
}
