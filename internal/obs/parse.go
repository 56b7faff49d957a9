package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseExposition parses and validates Prometheus 0.0.4 text produced
// by this package (and by anything else following the format): every
// family needs a HELP line immediately followed by its TYPE line, the
// type must be counter/gauge/histogram, every sample must belong to a
// declared family (histogram _bucket/_sum/_count suffixes resolve to
// their base family), and no series may repeat. It is the inverse of
// WriteFamilies: a family with no samples carries nothing and is dropped,
// as WriteFamilies drops it, so any text it accepts writes back to text
// that parses to the same families. It backs both the docscheck
// live-exposition lint and the /cluster/metrics scrape of each peer.
func ParseExposition(text string) ([]Family, error) {
	var fams []Family
	byName := make(map[string]int) // family name -> index in fams
	seen := make(map[string]bool)
	var lastHelp string
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				return nil, fmt.Errorf("obs: line %d: malformed HELP line %q", lineNo, line)
			}
			if !validMetricName(parts[0]) {
				return nil, fmt.Errorf("obs: line %d: invalid metric name %q", lineNo, parts[0])
			}
			if _, dup := byName[parts[0]]; dup {
				return nil, fmt.Errorf("obs: line %d: family %q declared twice", lineNo, parts[0])
			}
			lastHelp = parts[0]
			byName[parts[0]] = len(fams)
			fams = append(fams, Family{Name: parts[0], Help: parts[1]})
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("obs: line %d: malformed TYPE line %q", lineNo, line)
			}
			if parts[0] != lastHelp {
				return nil, fmt.Errorf("obs: line %d: TYPE %q does not follow its HELP (last HELP %q)", lineNo, parts[0], lastHelp)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("obs: line %d: unknown TYPE %q", lineNo, parts[1])
			}
			f := &fams[byName[parts[0]]]
			if f.Type != "" {
				return nil, fmt.Errorf("obs: line %d: family %q typed twice", lineNo, parts[0])
			}
			f.Type = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("obs: line %d: unexpected comment %q", lineNo, line)
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		idx, ok := byName[sample.Name]
		if !ok {
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(sample.Name, "_bucket"), "_sum"), "_count")
			if i, found := byName[base]; found && fams[i].Type == "histogram" {
				idx, ok = i, true
			}
		}
		if !ok || fams[idx].Type == "" {
			return nil, fmt.Errorf("obs: line %d: sample %q has no HELP/TYPE header", lineNo, sample.Name)
		}
		key := seriesKey(sample)
		if seen[key] {
			return nil, fmt.Errorf("obs: line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		fams[idx].Samples = append(fams[idx].Samples, sample)
	}
	kept := fams[:0]
	for _, f := range fams {
		if f.Type == "" {
			return nil, fmt.Errorf("obs: family %q has HELP but no TYPE", f.Name)
		}
		if len(f.Samples) > 0 {
			kept = append(kept, f)
		}
	}
	return kept, nil
}

// seriesKey identifies a series (name + full label set) for duplicate
// detection.
func seriesKey(s Sample) string {
	var b strings.Builder
	b.WriteString(s.Name)
	for _, l := range s.Labels {
		b.WriteByte('\x00')
		b.WriteString(l.Name)
		b.WriteByte('\x01')
		b.WriteString(l.Value)
	}
	return b.String()
}

func validMetricName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return name != ""
}

// parseSampleLine parses `name{label="value",...} value` with the text
// format's escape rules for label values.
func parseSampleLine(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameChar(line[i], i) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:i]
	if i < len(line) && line[i] == '{' {
		i++
		for {
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			start := i
			for i < len(line) && isNameChar(line[i], i-start) {
				i++
			}
			if i == start || i >= len(line) || line[i] != '=' {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			lname := line[start:i]
			i++
			if i >= len(line) || line[i] != '"' {
				return s, fmt.Errorf("label %s value not quoted in %q", lname, line)
			}
			i++
			var val strings.Builder
			for {
				if i >= len(line) {
					return s, fmt.Errorf("unterminated label value in %q", line)
				}
				c := line[i]
				if c == '"' {
					i++
					break
				}
				if c == '\\' {
					if i+1 >= len(line) {
						return s, fmt.Errorf("dangling escape in %q", line)
					}
					switch line[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return s, fmt.Errorf("bad escape \\%c in %q", line[i+1], line)
					}
					i += 2
					continue
				}
				val.WriteByte(c)
				i++
			}
			s.Labels = append(s.Labels, LabelPair{Name: lname, Value: val.String()})
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	if i >= len(line) || line[i] != ' ' {
		return s, fmt.Errorf("missing value separator in %q", line)
	}
	for i < len(line) && line[i] == ' ' {
		i++
	}
	v, err := strconv.ParseFloat(line[i:], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

func isNameChar(c byte, pos int) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return pos > 0
	}
	return false
}
