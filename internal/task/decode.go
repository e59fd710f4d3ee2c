package task

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's limit on open arrays and objects;
// a value nested deeper is a syntax error there, so it is one here.
const maxNestingDepth = 10000

// setDecoder parses the task-set wire form {"tasks":[{...},...]} in one
// pass over the bytes, without reflection; its task method alone backs
// Task.UnmarshalJSON. It must accept exactly the inputs that a strict
// json.Decoder filling {"tasks": []json.RawMessage}, followed by a
// strict json.Decoder filling jsonTask's fields from each element,
// accepts, and yield the same Set (for a single task: the same Task);
// FuzzTaskSetJSON holds it to that reference (refcodec_test.go). Hence:
//
//   - keys match their field case-insensitively (bytes.EqualFold); any
//     other key is an unknown field;
//   - a repeated key overwrites the earlier value; null leaves a task
//     field as it was but empties "tasks";
//   - strings are unescaped as encoding/json unescapes them, invalid
//     UTF-8 becoming U+FFFD;
//   - "a" must be a JSON integer that fits int; a missing, null or empty
//     c/d/t is a bad duration;
//   - only the first value is read, so bytes after it are ignored, as
//     json.Decoder.Decode ignores them;
//   - a type mismatch or unknown key inside a task rejects its array
//     only if no later "tasks" key replaces the array, so the error is
//     reported once the whole object has been read.
//
// Errors name the task index; a bad duration also names the task and
// the field.
type setDecoder struct {
	data []byte
	off  int
}

// set parses the whole value.
func (d *setDecoder) set() ([]Task, error) {
	switch c := d.next(); c {
	case '{':
		d.off++
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, err
		}
		return []Task{}, nil
	default:
		return nil, d.mismatch(c, "taskset", "object")
	}
	tasks := []Task{}
	var tasksErr error
	if d.next() == '}' {
		d.off++
		return tasks, nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return nil, err
		}
		if !bytes.EqualFold(key, []byte("tasks")) {
			return nil, fmt.Errorf("json: unknown field %q", key)
		}
		switch c := d.next(); c {
		case '[':
			if tasks, tasksErr, err = d.tasks(); err != nil {
				return nil, err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return nil, err
			}
			tasks, tasksErr = []Task{}, nil
		default:
			return nil, d.mismatch(c, "field tasks", "array")
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.off++
			if tasksErr != nil {
				return nil, tasksErr
			}
			return slices.Clip(tasks), nil
		default:
			return nil, d.syntaxErr("after object key:value pair")
		}
	}
}

// tasks parses a task array. A syntax error is returned as err and ends
// the parse; the first task that is malformed or has a bad duration is
// returned as bad after the array has been read to its end.
func (d *setDecoder) tasks() (tasks []Task, bad, err error) {
	d.off++
	tasks = make([]Task, 0, 8)
	if d.next() == ']' {
		d.off++
		return tasks, nil, nil
	}
	for i := 0; ; i++ {
		jt, terr, err := d.task()
		if err != nil {
			return nil, nil, err
		}
		if bad == nil {
			if terr == nil {
				var t Task
				t, terr = jt.task()
				tasks = append(tasks, t)
			}
			if terr != nil {
				bad = fmt.Errorf("tasks[%d]: %w", i, terr)
			}
		}
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.off++
			return tasks, bad, nil
		default:
			return nil, nil, d.syntaxErr("after array element")
		}
	}
}

// task parses one task value (an element of "tasks", or a whole
// Task.UnmarshalJSON input) into its wire fields. bad is the first type
// mismatch or unknown key (the rest of the value is still read for
// syntax); err is a syntax error. A null task yields empty fields, which
// jsonTask.task rejects. Nesting is counted as inside a set's "tasks"
// array.
func (d *setDecoder) task() (jt jsonTask, bad, err error) {
	switch c := d.next(); c {
	case '{':
		d.off++
	case 'n':
		return jt, nil, d.literal("null")
	default:
		if err := d.skip(2); err != nil {
			return jt, nil, err
		}
		return jt, d.mismatch(c, "task", "object"), nil
	}
	if d.next() == '}' {
		d.off++
		return jt, nil, nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return jt, nil, err
		}
		var ferr error
		switch {
		case bytes.EqualFold(key, []byte("c")):
			ferr, err = d.stringField(&jt.C, "c")
		case bytes.EqualFold(key, []byte("d")):
			ferr, err = d.stringField(&jt.D, "d")
		case bytes.EqualFold(key, []byte("t")):
			ferr, err = d.stringField(&jt.T, "t")
		case bytes.EqualFold(key, []byte("a")):
			ferr, err = d.intField(&jt.A, "a")
		case bytes.EqualFold(key, []byte("name")):
			ferr, err = d.stringField(&jt.Name, "name")
		default:
			ferr, err = fmt.Errorf("json: unknown field %q", key), d.skip(3)
		}
		if err != nil {
			return jt, nil, err
		}
		if bad == nil {
			bad = ferr
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.off++
			return jt, bad, nil
		default:
			return jt, nil, d.syntaxErr("after object key:value pair")
		}
	}
}

// stringField reads a string-typed task field into dst; null leaves it
// unchanged.
func (d *setDecoder) stringField(dst *string, name string) (bad, err error) {
	switch c := d.next(); c {
	case '"':
		lit, plain, err := d.str()
		if err != nil {
			return nil, err
		}
		if plain {
			*dst = string(lit[1 : len(lit)-1])
			return nil, nil
		}
		return nil, json.Unmarshal(lit, dst) // escapes and invalid UTF-8
	case 'n':
		return nil, d.literal("null")
	default:
		return d.mismatch(c, "task field "+strconv.Quote(name), "string"), d.skip(3)
	}
}

// intField reads the integer task field into dst; null leaves it
// unchanged, and a fraction, exponent or out-of-range value is a type
// mismatch, as it is for encoding/json.
func (d *setDecoder) intField(dst *int, name string) (bad, err error) {
	switch c := d.next(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return nil, err
		}
		n, perr := strconv.ParseInt(string(lit), 10, strconv.IntSize)
		if perr != nil {
			return fmt.Errorf("json: cannot unmarshal number %s into task field %q of type int", lit, name), nil
		}
		*dst = int(n)
		return nil, nil
	case c == 'n':
		return nil, d.literal("null")
	default:
		return d.mismatch(c, "task field "+strconv.Quote(name), "int"), d.skip(3)
	}
}

// skip reads one value of any type, checking only its syntax. depth is
// the number of arrays and objects open around it.
func (d *setDecoder) skip(depth int) error {
	switch c := d.next(); {
	case c == '{' || c == '[':
		if depth++; depth > maxNestingDepth {
			return d.syntaxErr("exceeded max depth")
		}
		d.off++
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		if d.next() == end {
			d.off++
			return nil
		}
		for {
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(depth); err != nil {
				return err
			}
			switch d.next() {
			case ',':
				d.off++
			case end:
				d.off++
				return nil
			default:
				return d.syntaxErr("after value")
			}
		}
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.syntaxErr("looking for beginning of value")
	}
}

// key reads an object key and the colon after it, returning the
// unescaped key.
func (d *setDecoder) key() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.syntaxErr("looking for beginning of object key string")
	}
	lit, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	key := lit[1 : len(lit)-1]
	if !plain {
		var s string
		if err := json.Unmarshal(lit, &s); err != nil {
			return nil, err
		}
		key = []byte(s)
	}
	if d.next() != ':' {
		return nil, d.syntaxErr("after object key")
	}
	d.off++
	return key, nil
}

// str reads a string literal, checking its syntax, and returns it with
// its quotes. plain reports that it has no escapes and is valid UTF-8,
// so its bytes between the quotes are its value.
func (d *setDecoder) str() (lit []byte, plain bool, err error) {
	start := d.off
	plain = true
	ascii := true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			lit = d.data[start:d.off]
			if !ascii && plain {
				plain = utf8.Valid(lit)
			}
			return lit, plain, nil
		case c == '\\':
			plain = false
			if i++; i == len(d.data) {
				break
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for j := 0; j < 4; j++ {
					if i++; i == len(d.data) || !isHex(d.data[i]) {
						d.off = i
						return nil, false, d.syntaxErr("in \\u hexadecimal character escape")
					}
				}
			default:
				d.off = i
				return nil, false, d.syntaxErr("in string escape code")
			}
		case c < ' ':
			d.off = i
			return nil, false, d.syntaxErr("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.off = len(d.data)
	return nil, false, d.syntaxErr("in string literal")
}

// number reads a JSON number literal: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *setDecoder) number() ([]byte, error) {
	start := d.off
	if d.peekIs('-') {
		d.off++
	}
	switch {
	case d.peekIs('0'):
		d.off++
	case d.digits() == 0:
		return nil, d.syntaxErr("in numeric literal")
	}
	if d.peekIs('.') {
		d.off++
		if d.digits() == 0 {
			return nil, d.syntaxErr("after decimal point in numeric literal")
		}
	}
	if d.peekIs('e') || d.peekIs('E') {
		d.off++
		if d.peekIs('+') || d.peekIs('-') {
			d.off++
		}
		if d.digits() == 0 {
			return nil, d.syntaxErr("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *setDecoder) digits() int {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off - start
}

// literal consumes the keyword lit (true, false or null).
func (d *setDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if !d.peekIs(lit[i]) {
			return d.syntaxErr("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// next skips whitespace and returns the next byte, or 0 at the end of
// the input (a NUL byte is invalid outside strings either way).
func (d *setDecoder) next() byte {
	for d.off < len(d.data) && isSpace(d.data[d.off]) {
		d.off++
	}
	if d.off == len(d.data) {
		return 0
	}
	return d.data[d.off]
}

func (d *setDecoder) peekIs(c byte) bool {
	return d.off < len(d.data) && d.data[d.off] == c
}

// mismatch reports a value of the wrong JSON type where want was
// expected, or a syntax error if c starts no value at all.
func (d *setDecoder) mismatch(c byte, where, want string) error {
	var got string
	switch {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		return d.syntaxErr("looking for beginning of value")
	}
	return fmt.Errorf("json: cannot unmarshal %s into %s of type %s", got, where, want)
}

func (d *setDecoder) syntaxErr(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("json: unexpected end of JSON input")
	}
	return fmt.Errorf("json: invalid character %q %s (offset %d)", d.data[d.off], context, d.off)
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
