package simnet

import (
	"context"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// catOtherAllowlist names the request types whose RPCs legitimately
// land in CatOther: the connection machinery (ping, identify, AutoNAT
// dial-backs) belongs to no background duty. Every other
// request type must map to a real budget category — a new message
// type added without a mapping fails this test instead of silently
// polluting the "other" column of every budget report.
var catOtherAllowlist = map[wire.Type]bool{
	wire.TPing:     true,
	wire.TIdentify: true,
	wire.TDialBack: true,
}

func TestEveryRequestTypeHasACategory(t *testing.T) {
	for typ := wire.Type(1); typ < wire.TAck; typ++ {
		name := typ.String()
		if strings.HasPrefix(name, "TYPE(") {
			continue // a gap in the request enum, not a defined type
		}
		cat := transport.CategoryForType(typ)
		switch {
		case cat == transport.CatOther && !catOtherAllowlist[typ]:
			t.Errorf("%s maps to CatOther: add it to transport.CategoryForType or, if it is pure connection machinery, to the allowlist here", name)
		case cat != transport.CatOther && catOtherAllowlist[typ]:
			t.Errorf("%s is allowlisted as CatOther but maps to %q: drop it from the allowlist", name, cat)
		}
	}
}

func TestCategorizeContextTagWins(t *testing.T) {
	ctx := context.Background()
	if got := transport.CategorizeRPC(ctx, wire.TFindNode); got != transport.CatLookup {
		t.Errorf("untagged TFindNode = %q, want lookup", got)
	}
	tagged := transport.WithRPCCategory(ctx, transport.CatRepublish)
	if got := transport.CategorizeRPC(tagged, wire.TFindNode); got != transport.CatRepublish {
		t.Errorf("tagged TFindNode = %q, want republish", got)
	}
	// An untagged request classifies by the shared type mapping.
	for typ := wire.Type(1); typ < wire.TAck; typ++ {
		if got, want := transport.CategorizeRPC(ctx, typ), transport.CategoryForType(typ); got != want {
			t.Errorf("CategorizeRPC(%s) = %q, CategoryForType = %q", typ, got, want)
		}
	}
}
