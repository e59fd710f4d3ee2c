package task

// The task-set JSON codec as it was before the one-pass parser and the
// append encoder: reflection-driven, a RawMessage re-scan of the set and
// a strict json.Decoder per task. It is kept only as the reference the
// production codec is differentially tested against (FuzzTaskSetJSON).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"fpgasched/internal/timeunit"
)

// refSet and refTask carry the reference codec's methods.
type (
	refSet  Set
	refTask Task
)

type refJSONTask struct {
	Name string `json:"name,omitempty"`
	C    string `json:"c"`
	D    string `json:"d"`
	T    string `json:"t"`
	A    int    `json:"a"`
}

type refJSONSet struct {
	Tasks []refJSONTask `json:"tasks"`
}

func refStrictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (t refTask) MarshalJSON() ([]byte, error) {
	return json.Marshal(refJSONTask{Name: t.Name, C: t.C.String(), D: t.D.String(), T: t.T.String(), A: t.A})
}

func (t *refTask) UnmarshalJSON(data []byte) error {
	var jt refJSONTask
	if err := refStrictUnmarshal(data, &jt); err != nil {
		return err
	}
	c, err := timeunit.Parse(jt.C)
	if err != nil {
		return fmt.Errorf("task %q: field c: %w", jt.Name, err)
	}
	d, err := timeunit.Parse(jt.D)
	if err != nil {
		return fmt.Errorf("task %q: field d: %w", jt.Name, err)
	}
	tt, err := timeunit.Parse(jt.T)
	if err != nil {
		return fmt.Errorf("task %q: field t: %w", jt.Name, err)
	}
	*t = refTask{Name: jt.Name, C: c, D: d, T: tt, A: jt.A}
	return nil
}

func (s *refSet) MarshalJSON() ([]byte, error) {
	out := refJSONSet{Tasks: make([]refJSONTask, len(s.Tasks))}
	for i, t := range s.Tasks {
		out.Tasks[i] = refJSONTask{Name: t.Name, C: t.C.String(), D: t.D.String(), T: t.T.String(), A: t.A}
	}
	return json.MarshalIndent(out, "", "  ")
}

func (s *refSet) UnmarshalJSON(data []byte) error {
	var js struct {
		Tasks []json.RawMessage `json:"tasks"`
	}
	if err := refStrictUnmarshal(data, &js); err != nil {
		return err
	}
	s.Tasks = make([]Task, len(js.Tasks))
	for i, raw := range js.Tasks {
		if err := (*refTask)(&s.Tasks[i]).UnmarshalJSON(raw); err != nil {
			return fmt.Errorf("tasks[%d]: %w", i, err)
		}
	}
	return nil
}

func (s *refSet) WriteJSON(w io.Writer) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
