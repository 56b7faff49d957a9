package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// LabelPair is one label of a sample.
type LabelPair struct {
	Name  string
	Value string
}

// Sample is one series line of an exposition: the full sample name
// (histogram suffixes included), its labels in wire order, and the value.
type Sample struct {
	Name   string
	Labels []LabelPair
	Value  float64
}

// Family is one metric family: a HELP/TYPE header pair and the samples
// under it. It is the one in-memory form of a metric family — what the
// Registry returns, what the gateway derives from live state at scrape
// time, what ParseExposition reads and what WriteFamilies writes.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge" or "histogram"
	Samples []Sample
}

// Add appends a sample named after the family, labeled by name/value
// pairs in order: f.Add(7, "feed", "m", "shard", "0") adds
// name{feed="m",shard="0"} 7.
func (f *Family) Add(v float64, pairs ...string) {
	if len(pairs)%2 != 0 {
		panic("obs: Family.Add requires name/value pairs")
	}
	var labels []LabelPair
	if len(pairs) > 0 {
		labels = make([]LabelPair, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			labels = append(labels, LabelPair{Name: pairs[i], Value: pairs[i+1]})
		}
	}
	f.Samples = append(f.Samples, Sample{Name: f.Name, Labels: labels, Value: v})
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a label value for the Prometheus text exposition
// format (backslash, double quote, newline).
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

// WriteFamilies renders families in the Prometheus text exposition format
// (version 0.0.4), in the order given, skipping any with no samples. The
// extra labels are prepended to every sample's own — the federation plane
// stamps a node label this way. ParseExposition is its inverse.
func WriteFamilies(w io.Writer, fams []Family, extra ...LabelPair) {
	var b []byte
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		b = fmt.Appendf(b[:0], "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			b = append(b, s.Name...)
			sep := byte('{')
			for _, set := range [2][]LabelPair{extra, s.Labels} {
				for _, l := range set {
					b = append(b, sep)
					b = append(b, l.Name...)
					b = append(b, `="`...)
					b = append(b, EscapeLabel(l.Value)...)
					b = append(b, '"')
					sep = ','
				}
			}
			if sep == ',' {
				b = append(b, '}')
			}
			b = append(b, ' ')
			b = appendFloat(b, s.Value)
			b = append(b, '\n')
		}
		w.Write(b)
	}
}

// appendFloat writes a whole number below 1e15 as an integer and anything
// else in the shortest form that parses back to the same float64.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func formatFloat(v float64) string { return string(appendFloat(nil, v)) }
