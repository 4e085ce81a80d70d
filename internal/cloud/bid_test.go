package cloud

import (
	"testing"
	"time"

	"spotverse/internal/catalog"
	"spotverse/internal/market"
	"spotverse/internal/simclock"
)

// Bid-price semantics: the paper bids on-demand (never crossed by the
// post-2017 smooth prices), but low bids must trigger price-based
// reclaims with the usual warning.

func TestDefaultBidIsOnDemand(t *testing.T) {
	_, p := newProvider(20)
	req, err := p.RequestSpot(catalog.M5XLarge, "eu-north-1", "w")
	if err != nil {
		t.Fatal(err)
	}
	od, _ := p.Market().Catalog().OnDemandPrice(catalog.M5XLarge, "eu-north-1")
	if req.MaxPriceUSD != od {
		t.Fatalf("bid = %v, want on-demand %v", req.MaxPriceUSD, od)
	}
}

func TestNegativeBidRejected(t *testing.T) {
	_, p := newProvider(21)
	if _, err := p.RequestSpotWithBid(catalog.M5XLarge, "eu-north-1", "w", -1); err == nil {
		t.Fatal("negative bid accepted")
	}
}

func TestBidBelowCurrentPriceStaysOpen(t *testing.T) {
	eng, p := newProvider(22)
	price, _, err := p.Market().RegionSpotPrice(catalog.M5XLarge, "eu-north-1", eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	req, err := p.RequestSpotWithBid(catalog.M5XLarge, "eu-north-1", "w", price/2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = eng.RunFor(15 * time.Minute)
		p.EvaluateOpenRequests()
	}
	_ = eng.RunFor(time.Minute)
	if req.State == RequestActive {
		t.Fatal("request fulfilled despite bid below market")
	}
}

func TestLowBidTriggersPriceReclaim(t *testing.T) {
	// Find a seed/AZ where the price rises above its launch value within
	// a month, then bid just above launch price: a price reclaim must
	// land, with notice first, and Reason must say price.
	eng := simclock.NewEngine()
	mkt := market.New(catalog.Default(), 23, simclock.Epoch)
	p := New(eng, mkt, 23)

	launchPrice, _, err := mkt.RegionSpotPrice(catalog.M5XLarge, "eu-north-1", eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	bid := launchPrice * 1.01
	req, err := p.RequestSpotWithBid(catalog.M5XLarge, "eu-north-1", "w", bid)
	if err != nil {
		t.Fatal(err)
	}
	var notices int
	p.OnInterruptionNotice(func(*Instance) { notices++ })
	for i := 0; i < 20 && req.State == RequestOpen; i++ {
		_ = eng.RunFor(15 * time.Minute)
		p.EvaluateOpenRequests()
	}
	_ = eng.RunFor(time.Minute)
	if req.State != RequestActive {
		t.Skip("placement unlucky for this seed")
	}
	inst, _ := p.Instance(req.Instance)
	_ = eng.Run(simclock.Epoch.Add(45 * 24 * time.Hour))
	if inst.State != StateTerminated || !inst.Interrupted {
		t.Skip("price never crossed the tight bid for this seed")
	}
	if inst.Reason != ReasonPrice && inst.Reason != ReasonCapacity {
		t.Fatalf("reason = %v", inst.Reason)
	}
	if inst.Reason == ReasonPrice {
		finalPrice, err := mkt.SpotPrice(catalog.M5XLarge, inst.AZ(), inst.TerminatedAt)
		if err != nil {
			t.Fatal(err)
		}
		if finalPrice <= bid {
			t.Fatalf("price reclaim at %v but price %v <= bid %v", inst.TerminatedAt, finalPrice, bid)
		}
		if notices == 0 {
			t.Fatal("price reclaim without notice")
		}
	}
}

func TestOnDemandBidNeverPriceReclaimed(t *testing.T) {
	// With the paper's on-demand bid, all interruptions must be
	// capacity-based.
	eng, p := newProvider(24)
	interrupted := 0
	p.OnTerminate(func(inst *Instance, i bool) {
		if !i {
			return
		}
		interrupted++
		if inst.Reason == ReasonPrice {
			t.Errorf("instance %s price-reclaimed under an on-demand bid", inst.ID)
		}
	})
	for i := 0; i < 30; i++ {
		_, _ = p.RequestSpot(catalog.M5XLarge, "ca-central-1", "w")
	}
	sweep := eng.Every(15*time.Minute, "sweep", func(time.Time) { p.EvaluateOpenRequests() })
	defer sweep.Stop()
	_ = eng.Run(simclock.Epoch.Add(5 * 24 * time.Hour))
	if interrupted == 0 {
		t.Fatal("no interruptions in 5 days in the riskiest region; nothing checked")
	}
}
