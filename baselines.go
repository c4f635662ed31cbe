package farmer

import (
	"repro/internal/carpenter"
	"repro/internal/charm"
	"repro/internal/closet"
	"repro/internal/cobbler"
	"repro/internal/columne"
)

// The baseline miners of the paper's evaluation, re-exported so downstream
// users can run the same comparisons. All are independent implementations:
// CHARM and the CLOSET-style miner enumerate the column space over tidsets
// and FP-trees respectively; ColumnE mines one interesting rule per rule
// group by column enumeration; CARPENTER is the row-enumeration closed-
// pattern predecessor of FARMER.
type (
	// CharmOptions configures RunCHARM (MinSup, work budget).
	CharmOptions = charm.Options
	// CharmResult is RunCHARM's outcome.
	CharmResult = charm.Result
	// ClosedSet is a closed itemset with support and tidset (CHARM).
	ClosedSet = charm.ClosedSet

	// ClosetOptions configures RunCLOSET.
	ClosetOptions = closet.Options
	// ClosetResult is RunCLOSET's outcome.
	ClosetResult = closet.Result
	// ClosetClosedSet is a closed itemset as reported by the CLOSET-style
	// miner (items and support; no tidset).
	ClosetClosedSet = closet.ClosedSet

	// ColumnEOptions configures RunColumnE.
	ColumnEOptions = columne.Options
	// ColumnEResult is RunColumnE's outcome.
	ColumnEResult = columne.Result
	// ColumnERule is one interesting rule found by column enumeration.
	ColumnERule = columne.Rule

	// CobblerOptions configures RunCOBBLER (MinSup, ForceMode,
	// SwitchDepth).
	CobblerOptions = cobbler.Options
	// CobblerResult is RunCOBBLER's outcome, including per-mode node
	// counts and the number of mode switches.
	CobblerResult = cobbler.Result
	// CobblerClosedPattern is a closed itemset with supporting rows as
	// reported by COBBLER.
	CobblerClosedPattern = cobbler.ClosedPattern

	// CarpenterOptions configures RunCARPENTER.
	CarpenterOptions = carpenter.Options
	// CarpenterResult is RunCARPENTER's outcome.
	CarpenterResult = carpenter.Result
	// ClosedPattern is a closed itemset with its supporting rows
	// (CARPENTER).
	ClosedPattern = carpenter.ClosedPattern
)

// ErrBudget sentinels: returned by the budgeted baselines when their work
// budget runs out ("did not finish").
var (
	ErrCharmBudget   = charm.ErrBudget
	ErrClosetBudget  = closet.ErrBudget
	ErrColumnEBudget = columne.ErrBudget
)
