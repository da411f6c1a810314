package coflowmodel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Registrations is a decoded registration request body. The wire
// format is either one Registration object (Bulk is false, Items has
// one entry) or a JSON array of them (Bulk is true) — the bulk form
// is how a high-throughput ingestion plane amortizes per-request HTTP
// overhead across many coflows.
//
// Items and Errs are index-aligned with the body: Items[i] is the
// i-th decoded registration and Errs[i] is nil when it is valid, or
// the decode/validation failure for exactly that item. A bad item
// never fails its siblings, so a bulk caller can register the valid
// ones and report the rest per index.
type Registrations struct {
	Items []*Registration
	Errs  []error
	Bulk  bool
}

// ParseRegistrations decodes a registration body that is either a
// single JSON object or an array of objects, validating every item
// against an m-port switch. Unknown fields are rejected, so a typo in
// a client payload fails loudly instead of silently registering an
// empty coflow — fatally for a single-object body, per item
// (index-addressed in Errs) inside an array.
//
// The returned error is non-nil only for body-level failures: JSON
// that is neither an object nor an array, a malformed array
// structure, anything but whitespace after the value (a second object
// would otherwise be dropped without a word), or a read failure
// (including *http.MaxBytesError). Such errors wrap ErrMalformed; a
// reader's own error stays unwrappable beside it.
func ParseRegistrations(r io.Reader, ports int) (*Registrations, error) {
	dec := json.NewDecoder(r)
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return nil, fmt.Errorf("%w: body must be a registration object or array, got %v", ErrMalformed, tok)
	}
	switch delim {
	case '{':
		// Single object: re-decode the whole body strictly. The token
		// read consumed the opening brace, so splice it back in front
		// of the decoder's buffered remainder.
		one := json.NewDecoder(io.MultiReader(bytes.NewReader([]byte("{")), dec.Buffered(), r))
		reg, err := parseOne(one)
		if err == nil {
			err = expectEOF(one)
		}
		if err != nil {
			return nil, err // a single-object body that does not decode fails whole
		}
		return &Registrations{
			Items: []*Registration{reg},
			Errs:  []error{reg.Validate(ports)},
		}, nil
	case '[':
		rs := &Registrations{Bulk: true}
		for dec.More() {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				// The array structure itself is broken; positions past
				// this point are unrecoverable.
				return nil, fmt.Errorf("%w: item %d: %w", ErrMalformed, len(rs.Items), err)
			}
			reg, err := parseOne(json.NewDecoder(bytes.NewReader(raw)))
			if err == nil {
				err = reg.Validate(ports)
			}
			rs.Items = append(rs.Items, reg)
			rs.Errs = append(rs.Errs, err)
		}
		if _, err := dec.Token(); err != nil { // closing ']'
			return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		if err := expectEOF(dec); err != nil {
			return nil, err
		}
		return rs, nil
	}
	return nil, fmt.Errorf("%w: body must be a registration object or array", ErrMalformed)
}

// parseOne strictly decodes one registration object (no validation).
// It decodes through a pointer so that a null item stays nil: decoding
// null into a struct is a no-op that would register a zero-demand
// coflow nobody asked for.
func parseOne(dec *json.Decoder) (*Registration, error) {
	dec.DisallowUnknownFields()
	var reg *Registration
	if err := dec.Decode(&reg); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if reg == nil {
		return nil, fmt.Errorf("%w: null is not a registration", ErrMalformed)
	}
	return reg, nil
}

// expectEOF fails unless only whitespace follows the value dec just
// decoded.
func expectEOF(dec *json.Decoder) error {
	switch tok, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("%w: after the value: %w", ErrMalformed, err)
	default:
		return fmt.Errorf("%w: trailing data after the value: %v", ErrMalformed, tok)
	}
}
