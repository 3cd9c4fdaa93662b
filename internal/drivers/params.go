package drivers

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"droidfuzz/internal/dsl"
	"droidfuzz/internal/snap"
	"droidfuzz/internal/vkernel"
)

// Runtime parameters (module params / sysfs attributes). Every driver family
// exposes a handful of knobs under /sys/module/<family>/parameters/ that
// vendor init scripts write at boot and that genuinely gate driver behavior:
// enable flags fence off ioctl subtrees, mode and threshold knobs select
// state-machine branches, and some branches are reachable only through a
// specific knob value combined with a specific ioctl sequence. A fuzzer
// confined to ioctls can never flip them — the runtime-parameter dimension
// (SyzParam) exists precisely to cover that blind spot.
//
// Knob values are atomics: ioctl handlers read them while holding the driver
// mutex and sysfs stores write them without it, so no lock ordering between
// the kernel fd table and driver state is introduced. Knobs embeds snap.Dirty
// and implements snap.Subsystem — a sysfs write is the one mutation that
// reaches driver-adjacent state without going through a device fd, so the
// Store path itself bumps the generation and Device.Restore winds knobs back.

// KnobKind selects the value domain of one knob.
type KnobKind int

const (
	// KnobInt is an integer knob with an inclusive [Min, Max] range.
	KnobInt KnobKind = iota
	// KnobString is a string knob restricted to an explicit choice list.
	KnobString
)

// knobSiteSpan is the per-knob cover-site window: Site..Site+2 bucket the
// accepted value, Site+3 is the malformed-write reject path.
const knobSiteSpan = 4

// ParamBaseWeight is the static vertex weight of a param write before the
// probing pass replaces it with the normalized vendor-init occurrence weight.
const ParamBaseWeight = 0.3

// Knob describes one runtime parameter of a driver family.
type Knob struct {
	// Name is the attribute file name, e.g. "pd_compliance".
	Name string
	// Mode holds the sysfs permission bits (0644 writable, 0444 read-only).
	Mode uint32
	// Kind selects which of the value fields below apply.
	Kind KnobKind
	// Def, Min, Max describe a KnobInt value (inclusive range).
	Def, Min, Max uint64
	// DefStr and Choices describe a KnobString value.
	DefStr  string
	Choices []string
	// Boot is how many times vendor init scripts write this knob per boot;
	// the probing pass turns it into the normalized occurrence weight, the
	// same way HAL interface weights come from observed IPC traffic.
	Boot int
	// Site is the base cover site of the sysfs store path (knobSiteSpan
	// sites wide). Zero for read-only knobs.
	Site uint32
}

// ParamPath returns the sysfs path of a family knob.
func ParamPath(family, knob string) string {
	return "/sys/module/" + family + "/parameters/" + knob
}

// ParamDSLName returns the DSL call name of a family knob write.
func ParamDSLName(family, knob string) string {
	return "param$" + family + "." + knob
}

// Knobs is the live runtime-parameter state of one driver instance.
type Knobs struct {
	snap.Dirty
	family string //droidvet:checkpoint ephemeral instance identity, fixed at construction
	specs  []Knob
	ints   []atomic.Uint64
	strs   []atomic.Pointer[string]
}

// NewKnobs builds the knob state for one driver instance with every knob at
// its default. The specs slice is shared and must not be mutated.
func NewKnobs(family string, specs []Knob) *Knobs {
	ks := &Knobs{
		family: family,
		specs:  specs,
		ints:   make([]atomic.Uint64, len(specs)),
		strs:   make([]atomic.Pointer[string], len(specs)),
	}
	for i := range specs {
		if specs[i].Kind == KnobString {
			s := specs[i].DefStr
			ks.strs[i].Store(&s)
		} else {
			ks.ints[i].Store(specs[i].Def)
		}
	}
	return ks
}

// Family returns the driver family name.
func (ks *Knobs) Family() string { return ks.family }

// Specs returns the knob descriptions in registration order. Read-only.
func (ks *Knobs) Specs() []Knob { return ks.specs }

// Int returns the current value of the idx-th knob (KnobInt).
func (ks *Knobs) Int(idx int) uint64 { return ks.ints[idx].Load() }

// Str returns the current value of the idx-th knob (KnobString).
func (ks *Knobs) Str(idx int) string { return *ks.strs[idx].Load() }

// Index returns the position of the named knob, or -1.
func (ks *Knobs) Index(name string) int {
	for i := range ks.specs {
		if ks.specs[i].Name == name {
			return i
		}
	}
	return -1
}

// Register exposes every knob in the kernel's sysfs namespace.
func (ks *Knobs) Register(k *vkernel.Kernel) {
	for i := range ks.specs {
		sp := &ks.specs[i]
		idx := i
		p := vkernel.Param{
			Path: ParamPath(ks.family, sp.Name),
			Mode: sp.Mode,
		}
		if sp.Kind == KnobString {
			p.Load = func() string { return *ks.strs[idx].Load() }
		} else {
			p.Load = func() string { return strconv.FormatUint(ks.ints[idx].Load(), 10) }
		}
		if sp.Mode&0o200 != 0 {
			p.Store = func(ctx *vkernel.Ctx, val string) error {
				return ks.store(ctx, idx, val)
			}
		}
		k.RegisterParam(p)
	}
}

// store parses, validates, and applies one sysfs write. Accepted writes bump
// the dirty generation — this is the only mutation path into driver-adjacent
// state that does not pass through a device fd, so central fd-op dirty
// tracking cannot see it; the store must mark itself.
func (ks *Knobs) store(ctx *vkernel.Ctx, idx int, val string) error {
	sp := &ks.specs[idx]
	if sp.Kind == KnobString {
		ci := slices.Index(sp.Choices, val)
		if ci < 0 {
			ctx.Cover(ks.family, sp.Site+knobSiteSpan-1)
			return vkernel.EINVAL
		}
		s := val
		ks.strs[idx].Store(&s)
		ks.Touch()
		ctx.Cover(ks.family, sp.Site+bucket(uint64(ci), knobSiteSpan-1))
		return nil
	}
	v, err := strconv.ParseUint(val, 0, 64)
	if err != nil || v < sp.Min || v > sp.Max {
		ctx.Cover(ks.family, sp.Site+knobSiteSpan-1)
		return vkernel.EINVAL
	}
	ks.ints[idx].Store(v)
	ks.Touch()
	ctx.Cover(ks.family, sp.Site+bucket(v-sp.Min, knobSiteSpan-1))
	return nil
}

// knobsState is the immutable checkpoint of a Knobs instance. Slots are
// positional: spec tables are model-independent per family, so index i
// means the same knob on every same-model twin. Family names the owner so
// an import can reject a payload landing on another family's knobs.
type knobsState struct {
	Family string //droidvet:checkpoint identity check for imports, fixed at construction
	Ints   []uint64
	Strs   []string
}

// Checkpoint implements snap.Subsystem.
func (ks *Knobs) Checkpoint() any {
	st := &knobsState{
		Family: ks.family,
		Ints:   make([]uint64, len(ks.specs)),
		Strs:   make([]string, len(ks.specs)),
	}
	for i := range ks.specs {
		if ks.specs[i].Kind == KnobString {
			st.Strs[i] = *ks.strs[i].Load()
		} else {
			st.Ints[i] = ks.ints[i].Load()
		}
	}
	return st
}

// Restore implements snap.Subsystem.
func (ks *Knobs) Restore(state any) {
	st := state.(*knobsState)
	for i := range ks.specs {
		if ks.specs[i].Kind == KnobString {
			s := st.Strs[i]
			ks.strs[i].Store(&s)
		} else {
			ks.ints[i].Store(st.Ints[i])
		}
	}
}

// Validate implements snap.Validator: the payload must belong to this
// driver family and carry one slot per knob.
func (ks *Knobs) Validate(state any) error {
	st := state.(*knobsState)
	if st.Family != ks.family {
		return fmt.Errorf("drivers: checkpoint knobs of family %q landed on %q", st.Family, ks.family)
	}
	if len(st.Ints) != len(ks.specs) || len(st.Strs) != len(ks.specs) {
		return fmt.Errorf("drivers: checkpoint %s knobs have %d/%d slots, want %d",
			ks.family, len(st.Ints), len(st.Strs), len(ks.specs))
	}
	return nil
}

// Descs returns the DSL call descriptions of the writable knobs: one
// single-argument param-write call each, weighted statically until the
// probing pass measures vendor-init occurrences.
func (ks *Knobs) Descs() []*dsl.CallDesc {
	var out []*dsl.CallDesc
	for i := range ks.specs {
		sp := &ks.specs[i]
		if sp.Mode&0o200 == 0 {
			continue
		}
		var t dsl.Type
		if sp.Kind == KnobString {
			t = dsl.String_(sp.Choices...)
		} else {
			t = dsl.Int(sp.Min, sp.Max)
		}
		out = append(out, &dsl.CallDesc{
			Name:        ParamDSLName(ks.family, sp.Name),
			Class:       dsl.ClassParam,
			Param:       ParamPath(ks.family, sp.Name),
			Args:        []dsl.Field{{Name: "value", Type: t}},
			Weight:      ParamBaseWeight,
			CriticalArg: 0,
		})
	}
	return out
}

// Per-family knob tables. Index constants track spec order; drivers read
// values by index on hot ioctl paths. Cover-site layout: sysfs store paths
// occupy 900+, knob-gated ioctl branches occupy 600..699 — both ranges are
// untouched by any default-configuration workload, keeping param-disabled
// campaigns bit-identical to the seed.

// tcpc knob indices.
const (
	tcpcKnobPDCompliance = iota
	tcpcKnobMaxContractMV
	tcpcKnobFWVariant
)

var tcpcKnobSpecs = []Knob{
	{Name: "pd_compliance", Mode: 0o644, Kind: KnobInt, Def: 1, Min: 0, Max: 1, Boot: 2, Site: 900},
	{Name: "max_contract_mv", Mode: 0o644, Kind: KnobInt, Def: 20000, Min: 5000, Max: 30000, Boot: 1, Site: 904},
	{Name: "fw_variant", Mode: 0o444, Kind: KnobString, DefStr: "rt1711h", Choices: []string{"rt1711h"}},
}

// hci knob indices.
const (
	hciKnobDutMode = iota
	hciKnobSSPMode
	hciKnobMaxConns
)

var hciKnobSpecs = []Knob{
	{Name: "dut_mode", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 0, Site: 900},
	{Name: "ssp_mode", Mode: 0o644, Kind: KnobInt, Def: 1, Min: 0, Max: 1, Boot: 2, Site: 904},
	{Name: "max_conns", Mode: 0o644, Kind: KnobInt, Def: 64, Min: 1, Max: 64, Boot: 1, Site: 908},
}

// l2cap knob indices.
const (
	l2capKnobERTM = iota
	l2capKnobTxWin
)

var l2capKnobSpecs = []Knob{
	{Name: "ertm_mode", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 1, Site: 900},
	{Name: "tx_win", Mode: 0o644, Kind: KnobInt, Def: 8, Min: 1, Max: 64, Boot: 0, Site: 904},
}

// v4l2 knob indices.
const (
	v4l2KnobHDRMode = iota
	v4l2KnobMaxBufs
	v4l2KnobWDRStrength
)

var v4l2KnobSpecs = []Knob{
	{Name: "hdr_mode", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 1, Site: 900},
	{Name: "max_bufs", Mode: 0o644, Kind: KnobInt, Def: 32, Min: 1, Max: 64, Boot: 1, Site: 904},
	{Name: "wdr_strength", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 8, Boot: 0, Site: 908},
}

// audio knob indices.
const (
	audioKnobDeepBuffer = iota
	audioKnobRateLock
)

var audioKnobSpecs = []Knob{
	{Name: "deep_buffer", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 1, Site: 900},
	{Name: "rate_lock", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 1, Site: 904},
}

// gpu knob indices.
const (
	gpuKnobPerfLevel = iota
	gpuKnobSecureCtx
	gpuKnobGovernor
)

var gpuKnobSpecs = []Knob{
	{Name: "perf_level", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 3, Boot: 2, Site: 900},
	{Name: "secure_ctx", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 0, Site: 904},
	{Name: "devfreq_governor", Mode: 0o644, Kind: KnobString, DefStr: "ondemand",
		Choices: []string{"ondemand", "performance", "powersave"}, Boot: 1, Site: 908},
}

// wlan knob indices.
const (
	wlanKnobCountry = iota
	wlanKnobRoamOff
	wlanKnobAMPDU
)

var wlanKnobSpecs = []Knob{
	{Name: "country", Mode: 0o644, Kind: KnobString, DefStr: "00",
		Choices: []string{"00", "US", "EU", "JP"}, Boot: 1, Site: 900},
	{Name: "roam_off", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 0, Site: 904},
	{Name: "ampdu", Mode: 0o644, Kind: KnobInt, Def: 1, Min: 0, Max: 1, Boot: 1, Site: 908},
}

// iio knob indices.
const (
	iioKnobBatchMode = iota
	iioKnobWatermark
)

var iioKnobSpecs = []Knob{
	{Name: "batch_mode", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 1, Site: 900},
	{Name: "watermark", Mode: 0o644, Kind: KnobInt, Def: 1, Min: 1, Max: 256, Boot: 0, Site: 904},
}

// nfc knob indices.
const (
	nfcKnobCEMode = iota
	nfcKnobESERoute
)

var nfcKnobSpecs = []Knob{
	{Name: "ce_mode", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 0, Site: 900},
	{Name: "ese_route", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 2, Boot: 1, Site: 904},
}

// thermal knob indices.
const (
	thermalKnobMitigation = iota
	thermalKnobPollMS
)

var thermalKnobSpecs = []Knob{
	{Name: "mitigation", Mode: 0o644, Kind: KnobInt, Def: 1, Min: 0, Max: 1, Boot: 1, Site: 900},
	{Name: "poll_ms", Mode: 0o644, Kind: KnobInt, Def: 1000, Min: 10, Max: 10000, Boot: 1, Site: 904},
}

// touch knob indices.
const (
	touchKnobGloveMode = iota
	touchKnobReportRate
	touchKnobFWDebug
)

var touchKnobSpecs = []Knob{
	{Name: "glove_mode", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 1, Site: 900},
	{Name: "report_rate", Mode: 0o644, Kind: KnobInt, Def: 120, Min: 60, Max: 480, Boot: 1, Site: 904},
	{Name: "fw_debug", Mode: 0o644, Kind: KnobInt, Def: 0, Min: 0, Max: 1, Boot: 0, Site: 908},
}
