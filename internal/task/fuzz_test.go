package task

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// taskSetSeeds is the corpus FuzzTaskSetJSON starts from, and which a
// plain go test replays: the paper's Tables 1-3, names needing every
// escape, case-folded and repeated keys, null and missing fields, bad
// numbers and durations, and framing oddities; the last seeds are bare
// tasks, the admit body, for the single-task leg.
var taskSetSeeds = []string{
	`{"tasks":[{"name":"t1","c":"1.26","d":"7","t":"7","a":9},{"name":"t2","c":"0.95","d":"5","t":"5","a":6}]}`,
	`{"tasks":[{"name":"t1","c":"4.50","d":"8","t":"8","a":3},{"name":"t2","c":"8.00","d":"9","t":"9","a":5}]}`,
	`{"tasks":[{"name":"t1","c":"2.10","d":"5","t":"5","a":7},{"name":"t2","c":"2.00","d":"7","t":"7","a":7}]}`,
	"{\n  \"tasks\": [\n    {\n      \"name\": \"t1\",\n      \"c\": \"2.1\",\n      \"d\": \"5\",\n      \"t\": \"5\",\n      \"a\": 7\n    }\n  ]\n}\n",
	`{"tasks":[]}`,
	`{}`,
	`null`,
	`null x`,
	`nullx`,
	`{"tasks":null}`,
	`{"tasks":[null]}`,
	`{"tasks":[{}]}`,
	`{"tasks":[1,"x",true,[]]}`,
	`{"tasks":{}}`,
	`[]`,
	`"tasks"`,
	`{"tasks":[{"name":"q\"b\\s\/<a>&b","c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"name":"<>&\"\\","c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"name":"ctl\u0000\u0001\b\f\n\r\t\u001f","c":"1","d":"4","t":"4","a":1}]}`,
	"{\"tasks\":[{\"name\":\"héllo 日本    \xff\xfe\x7f\",\"c\":\"1\",\"d\":\"4\",\"t\":\"4\",\"a\":1}]}",
	`{"tasks":[{"name":"😀 \ud800 \udc00A \ud800\ud800","c":"1","d":"4","t":"4","a":1}]}`,
	"{\"tasks\":[{\"name\":\"raw\x01ctl\",\"c\":\"1\",\"d\":\"4\",\"t\":\"4\",\"a\":1}]}",
	`{"TASKS":[{"NAME":"x","C":"1","D":"4","T":"4","A":1}]}`,
	`{"Tasks":[{"Name":"x","c":"1","d":"4","t":"4","a":1}]}`,
	"{\"taſkK\":[]}",
	"{\"tasKs\":[{\"c\":\"1\",\"d\":\"4\",\"t\":\"4\",\"a\":1}]}",
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","c":"2","d":"4","t":"4","a":1,"a":3}]}`,
	`{"tasks":[{"c":"x","c":"2","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","c":null,"d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":5,"c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1.5,"a":1}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":2}],"tasks":[{"c":"1","d":"4","t":"4"}]}`,
	`{"tasks":[{"c":"x","d":"4","t":"4","a":1}],"tasks":[{"c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"bogus":1}],"tasks":[{"c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"bogus":1}],"tasks":null}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1}],"tasks":null}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1}],"tasksX":[]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1,"area":7}]}`,
	`{"tasks":[{"d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":null,"d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","d":null,"t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","d":"4","t":null,"a":1}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4"}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":null}]}`,
	`{"tasks":[{"name":null,"c":"1","d":"4","t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":"1"}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1e0}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":-0}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":01}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":9223372036854775807}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":9223372036854775808}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":-9223372036854775808}]}`,
	`{"tasks":[{"c":"-1","d":"-4.5","t":"-0.0001","a":-3}]}`,
	`{"tasks":[{"c":"+1","d":".5","t":"4.","a":1}]}`,
	`{"tasks":[{"c":"1.00000","d":"1.00001","t":"4","a":1}]}`,
	`{"tasks":[{"c":"922337203685477.5807","d":"922337203685477.5808","t":"4","a":1}]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1}]} trailing`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1}]`,
	` {"tasks" : [ {"c" : "1" , "d":"4","t":"4","a":1} ] } `,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1,"x":{"y":[1,2,{"z":null}]}}]}`,
	`{"tasks":[[[[[]]]]],"tasks":[]}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1}],}`,
	`{"tasks":[{"c":"1","d":"4","t":"4","a":1},]}`,
	`{"tasks":[{"c":"1\x","d":"4","t":"4","a":1}]}`,
	``,
	`not json`,
	`{"name":"t1","c":"2.10","d":"5","t":"5","a":7}`,
	`{"NAME":"x","C":"1","D":"4","T":"4","A":1}`,
	`{"name":"q\"b\\s\/<a>&b","c":"1","d":"4","t":"4","a":1}`,
	`{"c":"1","c":"2","d":"4","t":"4","a":1,"a":3}`,
	`{"c":5,"c":"1","d":"4","t":"4","a":1}`,
	`{"c":"1","d":"4","t":"4","a":1,"area":7}`,
	`{"c":"1","d":"4","t":"4","a":1.5}`,
	`{"c":"1","d":"4","t":"4","a":null}`,
	`{"c":"0","d":"4","t":"4","a":1}`,
	`{"c":"1","d":"4","t":"4","a":1,"x":{"y":[1,2,{"z":null}]}}`,
	`{"c":"1","d":"4","t":"4","a":1} trailing`,
	`{"c":"1","d":"4","t":"4","a":1`,
	`[{"c":"1","d":"4","t":"4","a":1}]`,
	`"task"`,
	`1`,
}

// decodeStrict decodes body the way the server's decodeJSON does:
// unknown fields rejected, one document, nothing after it.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// wireClass is the api error code a request carrying set would get:
// invalid_json when the body does not decode, invalid_taskset when the
// set fails validation, as in the server's decodeErr and checkSet.
func wireClass(err error, set *Set) string {
	switch {
	case err != nil:
		return "invalid_json"
	case set == nil:
		return "no_taskset"
	case set.Validate() != nil:
		return "invalid_taskset"
	}
	return "ok"
}

// taskClass is the api error code an admit body decoded into task
// would get: invalid_json when it does not decode, invalid_task when
// the task fails validation.
func taskClass(err error, task Task) string {
	switch {
	case err != nil:
		return "invalid_json"
	case task.Validate() != nil:
		return "invalid_task"
	}
	return "ok"
}

// checkTaskAgainstReference asserts Task.UnmarshalJSON and the reference
// agree on data as a single task, used directly and as a whole request
// body (the admit endpoint's): same accept/reject, same api error
// class, same Task.
func checkTaskAgainstReference(t *testing.T, data []byte) {
	var got Task
	gerr := got.UnmarshalJSON(data)
	var want refTask
	werr := want.UnmarshalJSON(data)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("Task.UnmarshalJSON(%q): err = %v, reference err = %v", data, gerr, werr)
	}
	if gerr == nil && got != Task(want) {
		t.Fatalf("Task.UnmarshalJSON(%q) = %#v, reference %#v", data, got, want)
	}

	var greq Task
	var wreq refTask
	gerr, werr = decodeStrict(data, &greq), decodeStrict(data, &wreq)
	if gc, wc := taskClass(gerr, greq), taskClass(werr, Task(wreq)); gc != wc {
		t.Fatalf("admit body %q: class %s (%v), reference %s (%v)", data, gc, gerr, wc, werr)
	}
	if gerr == nil && greq != Task(wreq) {
		t.Fatalf("admit body %q: task %#v, reference %#v", data, greq, wreq)
	}
}

// checkAgainstReference asserts the production codec and the reference
// agree on data, used directly and embedded in a request body, and
// runs the single-task leg on the same bytes.
func checkAgainstReference(t *testing.T, data []byte) {
	checkTaskAgainstReference(t, data)

	var got Set
	gerr := got.UnmarshalJSON(data)
	var want refSet
	werr := want.UnmarshalJSON(data)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("UnmarshalJSON(%q): err = %v, reference err = %v", data, gerr, werr)
	}
	if gerr == nil {
		if !reflect.DeepEqual(got.Tasks, want.Tasks) {
			t.Fatalf("UnmarshalJSON(%q) = %#v, reference %#v", data, got.Tasks, want.Tasks)
		}
		checkEncodeAgainstReference(t, &got)
	}

	body := append(append([]byte(`{"columns":10,"taskset":`), data...), '}')
	var greq struct {
		Columns int  `json:"columns"`
		Taskset *Set `json:"taskset"`
	}
	var wreq struct {
		Columns int     `json:"columns"`
		Taskset *refSet `json:"taskset"`
	}
	gerr, werr = decodeStrict(body, &greq), decodeStrict(body, &wreq)
	gc, wc := wireClass(gerr, greq.Taskset), wireClass(werr, (*Set)(wreq.Taskset))
	if gc != wc {
		t.Fatalf("request %q: class %s (%v), reference %s (%v)", body, gc, gerr, wc, werr)
	}
	if gerr == nil && greq.Taskset != nil && !reflect.DeepEqual(greq.Taskset.Tasks, wreq.Taskset.Tasks) {
		t.Fatalf("request %q: set %#v, reference %#v", body, greq.Taskset.Tasks, wreq.Taskset.Tasks)
	}
}

// checkEncodeAgainstReference asserts identical json.Marshal bytes for
// the set and each task, and identical WriteJSON file bytes.
func checkEncodeAgainstReference(t *testing.T, s *Set) {
	got, gerr := json.Marshal(s)
	want, werr := json.Marshal((*refSet)(s))
	if gerr != nil || werr != nil || !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal(%#v) = %s (%v), reference %s (%v)", s.Tasks, got, gerr, want, werr)
	}
	for _, tk := range s.Tasks {
		got, gerr := json.Marshal(tk)
		want, werr := json.Marshal(refTask(tk))
		if gerr != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal(%#v) = %s (%v), reference %s (%v)", tk, got, gerr, want, werr)
		}
	}
	var gbuf, wbuf bytes.Buffer
	if err := s.WriteJSON(&gbuf); err != nil {
		t.Fatal(err)
	}
	if err := (*refSet)(s).WriteJSON(&wbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gbuf.Bytes(), wbuf.Bytes()) {
		t.Fatalf("WriteJSON(%#v) =\n%s\nreference\n%s", s.Tasks, gbuf.Bytes(), wbuf.Bytes())
	}
}

// TestCodecNestingLimit checks nesting at and just past encoding/json's
// depth limit inside an array a later key replaces, where only syntax
// decides acceptance. The inputs are too large to be useful fuzz seeds.
func TestCodecNestingLimit(t *testing.T) {
	for _, depth := range []int{maxNestingDepth - 2, maxNestingDepth - 1} {
		data := `{"tasks":[` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `],"tasks":[]}`
		checkAgainstReference(t, []byte(data))
	}
}

// FuzzTaskSetJSON differentially tests the one-pass decoder and the
// append encoder against the reference codec (refcodec_test.go): same
// accept/reject decision and api error class, same Set, and identical
// json.Marshal and WriteJSON bytes for everything accepted. Each input
// is also decoded as a single Task (the admit body) against
// refTask.UnmarshalJSON.
func FuzzTaskSetJSON(f *testing.F) {
	for _, seed := range taskSetSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkAgainstReference)
}
