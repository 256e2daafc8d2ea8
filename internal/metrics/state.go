package metrics

import (
	"fmt"
	"sort"

	"github.com/richnote/richnote/internal/notif"
)

// UserState is one user's counters in canonical exported form: LevelCounts
// is a sorted slice rather than a map so two exports of the same logical
// state are deeply equal (and encode to identical bytes).
type UserState struct {
	User notif.UserID

	Arrived              int
	ClickedTotal         int
	Delivered            int
	DeliveredBytes       int64
	UtilitySum           float64
	TrueUtilitySum       float64
	ClickedAndDelivered  int
	DeliveredBeforeClick int
	EnergyJ              float64
	DelayRoundsSum       int
	LevelCounts          []LevelCount

	TransferFailures   int
	RetriedDeliveries  int
	DegradedDeliveries int
	Dropped            int
	WastedEnergyJ      float64
}

// LevelCount is one presentation level's delivery tally.
type LevelCount struct {
	Level int
	Count int
}

// CollectorState is the complete state of a Collector in canonical form:
// users ascending, level counts ascending, delays ascending with one entry
// per distinct delay.
type CollectorState struct {
	Users  []UserState
	Delays []DelayCount
}

// ExportState captures the collector's state in canonical order.
func (c *Collector) ExportState() CollectorState {
	s := CollectorState{
		Users:  make([]UserState, 0, len(c.users)),
		Delays: append([]DelayCount(nil), c.delays...),
	}
	for _, u := range c.sortedUsers() {
		uc := c.users[u]
		us := UserState{
			User:                 u,
			Arrived:              uc.arrived,
			ClickedTotal:         uc.clickedTotal,
			Delivered:            uc.delivered,
			DeliveredBytes:       uc.deliveredBytes,
			UtilitySum:           uc.utilitySum,
			TrueUtilitySum:       uc.trueUtilitySum,
			ClickedAndDelivered:  uc.clickedAndDelivered,
			DeliveredBeforeClick: uc.deliveredBeforeClick,
			EnergyJ:              uc.energyJ,
			DelayRoundsSum:       uc.delayRoundsSum,
			TransferFailures:     uc.transferFailures,
			RetriedDeliveries:    uc.retriedDeliveries,
			DegradedDeliveries:   uc.degradedDeliveries,
			Dropped:              uc.dropped,
			WastedEnergyJ:        uc.wastedEnergyJ,
		}
		levels := make([]int, 0, len(uc.levelCounts))
		for lvl := range uc.levelCounts {
			levels = append(levels, lvl)
		}
		sort.Ints(levels)
		us.LevelCounts = make([]LevelCount, 0, len(levels))
		for _, lvl := range levels {
			us.LevelCounts = append(us.LevelCounts, LevelCount{Level: lvl, Count: uc.levelCounts[lvl]})
		}
		s.Users = append(s.Users, us)
	}
	return s
}

// RestoreState overwrites the collector with a previously exported
// snapshot. The collector must be empty (freshly constructed), and the
// delays must be canonical: non-negative, strictly ascending, each with a
// count of at least one.
func (c *Collector) RestoreState(s CollectorState) error {
	if len(c.users) != 0 || len(c.delays) != 0 {
		return fmt.Errorf("metrics: restore into non-empty collector (%d users, %d delays)",
			len(c.users), len(c.delays))
	}
	for i, d := range s.Delays {
		if d.Delay < 0 || d.Count < 1 || (i > 0 && d.Delay <= s.Delays[i-1].Delay) {
			return fmt.Errorf("metrics: restore delay %d (count %d) at %d is not canonical", d.Delay, d.Count, i)
		}
	}
	for i := range s.Users {
		us := &s.Users[i]
		uc := c.user(us.User)
		uc.arrived = us.Arrived
		uc.clickedTotal = us.ClickedTotal
		uc.delivered = us.Delivered
		uc.deliveredBytes = us.DeliveredBytes
		uc.utilitySum = us.UtilitySum
		uc.trueUtilitySum = us.TrueUtilitySum
		uc.clickedAndDelivered = us.ClickedAndDelivered
		uc.deliveredBeforeClick = us.DeliveredBeforeClick
		uc.energyJ = us.EnergyJ
		uc.delayRoundsSum = us.DelayRoundsSum
		uc.transferFailures = us.TransferFailures
		uc.retriedDeliveries = us.RetriedDeliveries
		uc.degradedDeliveries = us.DegradedDeliveries
		uc.dropped = us.Dropped
		uc.wastedEnergyJ = us.WastedEnergyJ
		for _, lc := range us.LevelCounts {
			uc.levelCounts[lc.Level] = lc.Count
		}
	}
	c.delays = append([]DelayCount(nil), s.Delays...)
	c.recomputeRunning()
	return nil
}
