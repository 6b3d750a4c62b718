// Tokenising a request line where it lies in the connection's read
// buffer: no string for the line, no slice of strings for its fields.
// White space is what strings.Fields calls white space, so a line
// splits exactly as it did when it was a string.
package main

import (
	"bytes"
	"strings"
	"unicode"
	"unicode/utf8"
)

// verb is a command word, resolved once per line and shared by
// dispatch, the admission valve and the slow-command log.
type verb uint8

const (
	verbUnknown verb = iota
	verbPing
	verbGet
	verbFGet
	verbBGet
	verbWatch
	verbSet
	verbDel
	verbAdd
	verbMGet
	verbMSet
	verbTxn
	verbStats
	verbSubscribe
	verbQuit
)

// parseVerb matches tok against the command words, ignoring case.
func parseVerb(tok []byte) verb {
	var up [len("SUBSCRIBE")]byte
	for _, c := range tok {
		if c >= utf8.RuneSelf {
			// Off the fast path: a few non-ASCII letters upper-case
			// into ASCII (ſ, ı), and always have spelled a verb.
			tok = []byte(strings.ToUpper(string(tok)))
			break
		}
	}
	if len(tok) > len(up) {
		return verbUnknown
	}
	for i, c := range tok {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up[:len(tok)]) {
	case "PING":
		return verbPing
	case "GET":
		return verbGet
	case "FGET":
		return verbFGet
	case "BGET":
		return verbBGet
	case "WATCH":
		return verbWatch
	case "SET":
		return verbSet
	case "DEL":
		return verbDel
	case "ADD":
		return verbAdd
	case "MGET":
		return verbMGet
	case "MSET":
		return verbMSet
	case "TXN":
		return verbTxn
	case "STATS":
		return verbStats
	case "SUBSCRIBE":
		return verbSubscribe
	case "QUIT":
		return verbQuit
	}
	return verbUnknown
}

// trimLeftSpace returns b without its leading white space.
func trimLeftSpace(b []byte) []byte { return bytes.TrimLeftFunc(b, unicode.IsSpace) }

// nextField splits b after its first white-space-delimited token: tok
// is that token (empty when b holds none) and rest is what follows it,
// leading white space included. Both are sub-slices of b.
func nextField(b []byte) (tok, rest []byte) {
	b = trimLeftSpace(b)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// appendFields appends b's tokens to dst, which the caller reuses from
// one command to the next.
func appendFields(dst [][]byte, b []byte) [][]byte {
	for {
		var tok []byte
		if tok, b = nextField(b); len(tok) == 0 {
			return dst
		}
		dst = append(dst, tok)
	}
}
