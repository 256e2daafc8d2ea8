package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/richnote/richnote/internal/notif"
)

// The GET /v1/users/{id}/deliveries body is the one response the service
// writes per feed read, so it is rendered by an append-only encoder into a
// pooled buffer instead of reflecting over DeliveriesResponse. The bytes
// are exactly encoding/json's for that type (TestDeliveriesJSONMatches
// holds the two together), which keeps DeliveriesResponse the wire
// contract clients decode into.

// feedBufs recycles response buffers across feed reads.
var feedBufs = sync.Pool{New: func() any { return new([]byte) }}

var jsonContentType = []string{"application/json"}

// writeFeed answers a feed read with the body encode appends to a pooled
// buffer, its length stated, so the response is one write and never
// chunked.
func writeFeed(w http.ResponseWriter, encode func(b []byte) []byte) {
	buf := feedBufs.Get().(*[]byte)
	*buf = encode((*buf)[:0])
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(*buf))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // the connection is the only failure mode here
	feedBufs.Put(buf)
}

// appendDeliveriesJSON appends what json.Encoder.Encode writes for
// DeliveriesResponse{user, append(older, newer...)}, trailing newline
// included; an empty feed renders as an empty array. The two runs let a
// feed ring encode without first copying itself into order. Non-finite
// floats, which encoding/json refuses, cannot reach a feed: utilities are
// validated into [0, 1] at enrichment and energy is a finite sum.
func appendDeliveriesJSON(b []byte, user notif.UserID, older, newer []notif.Delivery) []byte {
	b = append(b, `{"user":`...)
	b = strconv.AppendInt(b, int64(user), 10)
	b = append(b, `,"deliveries":[`...)
	for i := range older {
		b = appendDeliveryJSON(b, &older[i], i == 0)
	}
	for i := range newer {
		b = appendDeliveryJSON(b, &newer[i], i == 0 && len(older) == 0)
	}
	return append(b, "]}\n"...)
}

// appendDeliveryJSON appends one feed entry, comma-separated unless first.
func appendDeliveryJSON(b []byte, d *notif.Delivery, first bool) []byte {
	if !first {
		b = append(b, ',')
	}
	b = append(b, `{"item_id":`...)
	b = strconv.AppendInt(b, int64(d.ItemID), 10)
	b = append(b, `,"recipient":`...)
	b = strconv.AppendInt(b, int64(d.Recipient), 10)
	b = append(b, `,"level":`...)
	b = strconv.AppendInt(b, int64(d.Level), 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, d.Size, 10)
	b = append(b, `,"utility":`...)
	b = appendJSONFloat(b, d.Utility)
	if d.TrueUtility != 0 {
		b = append(b, `,"true_utility":`...)
		b = appendJSONFloat(b, d.TrueUtility)
	}
	b = append(b, `,"energy_j":`...)
	b = appendJSONFloat(b, d.EnergyJ)
	if d.Retries != 0 {
		b = append(b, `,"retries":`...)
		b = strconv.AppendInt(b, int64(d.Retries), 10)
	}
	if d.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = append(b, `,"arrived_round":`...)
	b = strconv.AppendInt(b, int64(d.ArrivedRound), 10)
	b = append(b, `,"delivered_round":`...)
	b = strconv.AppendInt(b, int64(d.DeliveredRound), 10)
	b = append(b, `,"delivered_at":"`...)
	b = d.DeliveredAt.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `"}`...)
	return b
}

// appendJSONFloat renders a float64 as encoding/json does: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a
// two-digit exponent's leading zero dropped (e-07 becomes e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
