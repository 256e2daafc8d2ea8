package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 % of 10,000 is 9990, not 9990.000000000002
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples above the p-th percentile's rank.
func beyond(n int, p float64) int { return n - rank(n, p) }

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// trimmedMean is the mean of v without its lowest and highest tenth. For
// samples spread evenly over an interval it estimates the same centre as
// the mean, and one stalled sample cannot move it.
func trimmedMean(v []float64) float64 {
	s := sorted(v)
	k := len(s) / 10
	return mean(s[k : len(s)-k])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// exposition is a parsed Prometheus text page: full series text, labels
// included, to value.
type exposition map[string]float64

func parseExposition(page []byte) exposition {
	out := make(exposition)
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[at+1:], 64); err == nil {
			out[line[:at]] += v
		}
	}
	return out
}

// each visits every series of one metric name, labelled or not.
func (e exposition) each(name string, fn func(series string, v float64)) {
	for series, v := range e {
		if series == name || strings.HasPrefix(series, name+"{") {
			fn(series, v)
		}
	}
}

func (e exposition) sum(name string) float64 {
	total := 0.0
	e.each(name, func(_ string, v float64) { total += v })
	return total
}

func (e exposition) max(name string) float64 {
	best := 0.0
	e.each(name, func(_ string, v float64) { best = math.Max(best, v) })
	return best
}

// merge adds another page's series into e: the cluster's nodes each serve
// their own shard gauges, and their sum is the cluster's.
func (e exposition) merge(other exposition) {
	for k, v := range other {
		e[k] += v
	}
}

// histogramQuantile reads a quantile off a cumulative-bucket histogram by
// linear interpolation inside the bucket, as Prometheus does.
func (e exposition) histogramQuantile(name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	e.each(name+"_bucket", func(series string, v float64) {
		_, rest, ok := strings.Cut(series, `le="`)
		if !ok {
			return
		}
		text := strings.TrimSuffix(rest, `"}`)
		le := math.Inf(1)
		if text != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(text, 64); err != nil {
				return
			}
		}
		bs = append(bs, bucket{le, v})
	})
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	want := q * bs[len(bs)-1].count
	prevLe, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= want {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			return prevLe + (b.le-prevLe)*(want-prevCount)/(b.count-prevCount)
		}
		prevLe, prevCount = b.le, b.count
	}
	return prevLe
}
