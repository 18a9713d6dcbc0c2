package store

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// decodeRecord decodes one record line (newline excluded) exactly as
// json.Unmarshal into a fresh Record does: it accepts the same lines,
// fails on the same lines, and yields the same bits. A line in the shape
// PutBatch's json.Encoder writes is parsed directly, and fast reports
// that it was; any other line goes to json.Unmarshal.
func decodeRecord(line []byte) (r Record, fast bool, err error) {
	p := recordParser{b: line}
	if r = p.record(); !p.failed {
		return r, true, nil
	}
	var slow Record // json.Unmarshal's target escapes; keep it off the direct path
	err = json.Unmarshal(line, &slow)
	return slow, false, err
}

// recordParser reads the exact shape json.Encoder gives a Record: no
// whitespace, the Record and Summary JSON names in field order (an
// omitempty field present or absent), strings with no escapes, no
// control characters and valid UTF-8 (which json.Unmarshal returns
// unchanged), and numbers in JSON's grammar, converted by the strconv
// call encoding/json makes for the field's kind. Anything else marks the
// parser failed; later reads are no-ops, and the caller falls back to
// json.Unmarshal, whose answer (a value or an error) then stands.
type recordParser struct {
	b      []byte
	failed bool
}

func (p *recordParser) record() (r Record) {
	p.lit(`{"v":`)
	r.V = p.int()
	if p.opt(`,"campaign":`) {
		r.Campaign = p.str()
	}
	p.lit(`,"hash":`)
	r.Hash = p.str()
	p.lit(`,"scenario":`)
	r.Scenario = p.str()
	p.lit(`,"protocol":`)
	r.Protocol = p.str()
	p.lit(`,"seed":`)
	r.Seed = p.uint()

	s := &r.Summary
	p.lit(`,"summary":{"durationSeconds":`)
	s.DurationSeconds = p.float()
	p.lit(`,"rounds":`)
	s.Rounds = p.int()
	p.lit(`,"totalConsumedJ":`)
	s.TotalConsumedJ = p.float()
	p.lit(`,"avgRemainingJ":`)
	s.AvgRemainingJ = p.float()
	p.lit(`,"aliveAtEnd":`)
	s.AliveAtEnd = p.int()
	if p.opt(`,"firstDeathSeconds":`) {
		s.FirstDeathSeconds = p.float()
	}
	if p.opt(`,"firstDeathValid":`) {
		s.FirstDeathValid = p.bool()
	}
	if p.opt(`,"networkLifetimeSeconds":`) {
		s.NetworkLifetimeSeconds = p.float()
	}
	if p.opt(`,"networkDead":`) {
		s.NetworkDead = p.bool()
	}
	p.lit(`,"energyPerPacketMilliJ":`)
	s.EnergyPerPacketMilliJ = p.float()
	p.lit(`,"generated":`)
	s.Generated = p.uint()
	p.lit(`,"delivered":`)
	s.Delivered = p.uint()
	p.lit(`,"droppedBuffer":`)
	s.DroppedBuffer = p.uint()
	p.lit(`,"droppedRetry":`)
	s.DroppedRetry = p.uint()
	p.lit(`,"deliveryRate":`)
	s.DeliveryRate = p.float()
	p.lit(`,"throughputKbps":`)
	s.ThroughputKbps = p.float()
	p.lit(`,"meanDelayMs":`)
	s.MeanDelayMs = p.float()
	p.lit(`,"p95DelayMs":`)
	s.P95DelayMs = p.float()
	p.lit(`,"maxDelayMs":`)
	s.MaxDelayMs = p.float()
	p.lit(`,"queueStdDev":`)
	s.QueueStdDev = p.float()
	p.lit(`,"collisions":`)
	s.Collisions = p.uint()
	p.lit(`,"channelFails":`)
	s.ChannelFails = p.uint()
	p.lit(`}}`)
	if len(p.b) != 0 {
		p.failed = true
	}
	return r
}

// opt consumes s if the line continues with it.
func (p *recordParser) opt(s string) bool {
	if p.failed || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// lit consumes s, or fails.
func (p *recordParser) lit(s string) {
	if !p.opt(s) {
		p.failed = true
	}
}

func (p *recordParser) bool() bool {
	if p.opt("true") {
		return true
	}
	p.lit("false")
	return false
}

func (p *recordParser) str() string {
	if p.failed || len(p.b) == 0 || p.b[0] != '"' {
		p.failed = true
		return ""
	}
	ascii := true
	for i := 1; i < len(p.b); i++ {
		c := p.b[i]
		if c == '"' {
			s := p.b[1:i]
			if !ascii && !utf8.Valid(s) {
				break // json.Unmarshal replaces invalid bytes with U+FFFD
			}
			p.b = p.b[i+1:]
			return string(s)
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	p.failed = true
	return ""
}

// The numeric readers convert a token with the call json.Unmarshal makes
// for the field's kind, and fail where it reports an error. Each string
// conversion is a short token that does not escape, so it stays on the
// stack.

func (p *recordParser) float() float64 {
	tok := p.number()
	if p.failed {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.failed = true
	}
	return f
}

func (p *recordParser) int() int {
	tok := p.number()
	if p.failed {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		p.failed = true
	}
	return int(n)
}

func (p *recordParser) uint() uint64 {
	tok := p.number()
	if p.failed {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		p.failed = true
	}
	return n
}

// number consumes a token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, the check that
// encoding/json's scanner makes before any strconv call sees it.
func (p *recordParser) number() []byte {
	if p.failed {
		return nil
	}
	b, i := p.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		p.failed = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			p.failed = true
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			p.failed = true
			return nil
		}
		i = j
	}
	p.b = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
