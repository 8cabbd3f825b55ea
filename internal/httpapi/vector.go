package httpapi

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Vector is the wire form of every float vector a request carries. It
// encodes as a JSON string holding the standard, padded base64 of the
// vector's little-endian IEEE-754 float32 bytes — 16/3 characters a float
// instead of the ≈12 of decimal text. It decodes from that string or from a JSON
// array of numbers, to the values and errors encoding/json gives a
// []float32, so curl, other languages and older clients keep working while
// this module's Go code (the router's member calls above all) sends the
// compact form without asking.
//
// A decoded Vector is finite: decimal text cannot spell NaN or ±Inf, and
// the string form refuses them. The string form is also canonical: an input
// the encoder would not have produced for the same bytes (other alphabets,
// missing padding, stray bits, line breaks) is refused, so re-encoding a
// decoded Vector gives back the base64 it came from.
type Vector []float32

// vectorEncoding is the one base64 alphabet on the wire.
var vectorEncoding = base64.StdEncoding.Strict()

// MarshalJSON encodes v as a base64 string; nil encodes as null. Like
// encoding/json for a []float32, it refuses NaN and ±Inf.
func (v Vector) MarshalJSON() ([]byte, error) {
	if v == nil {
		return []byte("null"), nil
	}
	if err := checkFinite(v); err != nil {
		return nil, err
	}
	raw := make([]byte, 0, 4*len(v))
	for _, f := range v {
		raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(f))
	}
	out := make([]byte, 0, vectorEncoding.EncodedLen(len(raw))+2)
	out = append(out, '"')
	out = vectorEncoding.AppendEncode(out, raw)
	return append(out, '"'), nil
}

// UnmarshalJSON decodes a base64 string, an array of numbers, or null.
func (v *Vector) UnmarshalJSON(data []byte) error {
	switch {
	case string(data) == "null":
		*v = nil
		return nil
	case len(data) > 0 && data[0] == '[':
		if out, ok := parseNumbers(data); ok {
			*v = out
			return nil
		}
		// Null elements, other types and numbers out of float32's range go
		// to encoding/json, so each error is the one a []float32 gives.
		return json.Unmarshal(data, (*[]float32)(v))
	case len(data) >= 2 && data[0] == '"' && data[len(data)-1] == '"':
		return v.decodeBase64(data)
	}
	return fmt.Errorf("vector must be a base64 string or an array of numbers, not %.16s", data)
}

// decodeBase64 decodes the JSON string data (quotes included).
func (v *Vector) decodeBase64(data []byte) error {
	text := data[1 : len(data)-1]
	if bytes.IndexByte(text, '\\') >= 0 {
		// JSON escapes (\/, \uXXXX) can spell alphabet characters too.
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		text = []byte(s)
	}
	raw := make([]byte, vectorEncoding.DecodedLen(len(text)))
	n, err := vectorEncoding.Decode(raw, text)
	if err == nil && vectorEncoding.EncodedLen(n) != len(text) {
		err = errors.New("line breaks in the string") // skipped by Decode, never encoded
	}
	if err != nil {
		return fmt.Errorf("vector is not standard padded base64: %v", err)
	}
	if n%4 != 0 {
		return fmt.Errorf("vector is %d bytes, not a whole number of float32s", n)
	}
	out := make(Vector, n/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	if err := checkFinite(out); err != nil {
		return err
	}
	*v = out
	return nil
}

// parseNumbers decodes data, a JSON array of numbers, in one pass and one
// allocation; each value is strconv.ParseFloat's at 32 bits, as in
// encoding/json. It reports false for any other array. A number token holds
// only digits, signs, '.', 'e' and 'E', so it cannot spell NaN or ±Inf.
func parseNumbers(data []byte) (Vector, bool) {
	out := make(Vector, 0, bytes.Count(data, []byte{','})+1)
	i := skipSpace(data, 1)
	if i < len(data) && data[i] == ']' {
		return out, skipSpace(data, i+1) == len(data)
	}
	for i < len(data) {
		start := i
		for i < len(data) && isNumberByte(data[i]) {
			i++
		}
		f, err := strconv.ParseFloat(string(data[start:i]), 32)
		if err != nil {
			return nil, false
		}
		out = append(out, float32(f))
		if i = skipSpace(data, i); i == len(data) {
			return nil, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return out, skipSpace(data, i+1) == len(data)
		default:
			return nil, false
		}
	}
	return nil, false
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

func checkFinite(v Vector) error {
	for i, f := range v {
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			return fmt.Errorf("vector element %d is %v, not a finite number", i, f)
		}
	}
	return nil
}
