// Package probe implements DroidFuzz's pre-testing HAL driver probing pass
// (paper §IV-B, Fig. 3). Release firmware ships no HAL interface
// descriptions, so the pass reconstructs them by poking the running system:
//
//  1. an lshal-style enumeration of registered HAL services through
//     ServiceManager;
//  2. a Poke trial of every reflected interface, marshaling minimal
//     parameters and invoking the method, while
//  3. eBPF hooks on Binder-adjacent syscalls record the kernel interaction
//     each interface produces; and
//  4. normalized-occurrence weighting: the framework's high-level APIs are
//     exercised and the number of times each interface is triggered becomes
//     its base-invocation weight.
//
// The output is a set of DSL call descriptions for the HAL boundary that
// the generator treats exactly like syscall descriptions.
package probe

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"droidfuzz/internal/binder"
	"droidfuzz/internal/device"
	"droidfuzz/internal/drivers"
	"droidfuzz/internal/dsl"
	"droidfuzz/internal/ebpf"
	"droidfuzz/internal/vkernel"
)

// ServiceReport summarizes probing one HAL service.
type ServiceReport struct {
	Descriptor string
	Methods    int
	// TrialEvents is the number of HAL-origin syscalls the Poke trials of
	// this service produced (the eBPF-observed kernel interaction).
	TrialEvents int
}

// Result is the probing pass output.
type Result struct {
	// Interfaces are the discovered HAL interfaces as DSL descriptions,
	// weights assigned.
	Interfaces []*dsl.CallDesc
	// Params are the discovered writable runtime parameters (sysfs module
	// knobs) as DSL descriptions, weights assigned. Empty unless
	// Options.Params is set.
	Params []*dsl.CallDesc
	// Services summarizes per-service findings, sorted by descriptor.
	Services []ServiceReport
	// Occurrences maps interface DSL names to raw trigger counts from the
	// framework-API weighting runs.
	Occurrences map[string]int
	// Seeds are the observed framework workloads distilled into DSL
	// programs — one per high-level operation, with the real marshaled
	// argument values and resource flow reconstructed. They bootstrap the
	// fuzzer's corpus with realistic interaction sequences.
	Seeds []*dsl.Prog
}

// Options tune the probing pass.
type Options struct {
	// WeightRounds is how many times each framework operation is run for
	// occurrence counting (default 3).
	WeightRounds int
	// MinWeight and MaxWeight bound the normalized interface weights
	// (defaults 0.10 and 0.90).
	MinWeight, MaxWeight float64
	// Params enables discovery of the writable runtime-parameter surface
	// (sysfs module knobs) alongside the HAL interfaces.
	Params bool
}

func (o *Options) defaults() {
	if o.WeightRounds <= 0 {
		o.WeightRounds = 3
	}
	if o.MinWeight <= 0 {
		o.MinWeight = 0.10
	}
	if o.MaxWeight <= 0 || o.MaxWeight >= 1 {
		o.MaxWeight = 0.90
	}
}

// shortName compresses a Binder descriptor to the DSL service prefix:
// "android.hardware.graphics.composer" -> "graphics.composer".
func shortName(descriptor string) string {
	return strings.TrimPrefix(descriptor, "android.hardware.")
}

// DSLName returns the DSL call name for a probed interface.
func DSLName(descriptor, method string) string {
	return "hal$" + shortName(descriptor) + "." + method
}

// Run executes the probing pass against a booted device.
func Run(dev *device.Device, opts Options) (*Result, error) {
	opts.defaults()
	res := &Result{Occurrences: make(map[string]int)}

	// Step 1: enumerate services (lshal through ServiceManager).
	descriptors := dev.SM.List()

	// Step 2+3: reflect and poke each service under an eBPF probe.
	for _, desc := range descriptors {
		report, ifaces, err := pokeService(dev, desc)
		if err != nil {
			return nil, err
		}
		res.Services = append(res.Services, report)
		res.Interfaces = append(res.Interfaces, ifaces...)
	}
	sort.Slice(res.Services, func(i, j int) bool {
		return res.Services[i].Descriptor < res.Services[j].Descriptor
	})

	// The Poke trials may have tripped buggy paths; restore a clean
	// device before weighting (the pass is pre-testing: a rebooted,
	// healthy device is its postcondition).
	if !dev.Healthy() {
		dev.Reboot()
	}

	// Step 4: occurrence weighting through high-level framework APIs. The
	// same observed IPC traffic also yields argument-value hints — the
	// actual parameters real clients marshal — which generation later
	// replays with perturbations (historical payloads, §IV-C).
	counts := make(map[string]int)
	hints := make(map[string]map[int][]uint64) // iface name -> arg idx -> values
	codeToDesc := make(map[string]*dsl.CallDesc, len(res.Interfaces))
	for _, d := range res.Interfaces {
		codeToDesc[fmt.Sprintf("%s#%d", d.Service, d.MethodCode)] = d
	}
	var trace []*dsl.Call // current op's distilled calls; nil = not recording
	dev.SM.SetObserver(func(descriptor string, code uint32, payload []byte) {
		if code == binder.InterfaceTransaction {
			return
		}
		d, ok := codeToDesc[fmt.Sprintf("%s#%d", descriptor, code)]
		if !ok {
			return
		}
		counts[d.Name]++
		harvestHints(hints, d, payload)
		if trace != nil {
			if c := decodeCall(d, payload); c != nil {
				trace = append(trace, c)
			}
		}
	})
	for round := 0; round < opts.WeightRounds; round++ {
		for _, op := range dev.FW.Ops() {
			record := round == 0
			if record {
				trace = []*dsl.Call{}
			}
			// Individual operations may fail on a crashed service; the
			// weighting pass tolerates it and reboots below.
			_ = op.Run()
			if record {
				if seed := distillSeed(trace); seed != nil {
					res.Seeds = append(res.Seeds, seed)
				}
				trace = nil
			}
			if !dev.Healthy() {
				dev.Reboot()
			}
		}
	}
	dev.SM.SetObserver(nil)

	// Optional step 5: runtime-parameter discovery. Knob writes happen
	// before the trailing reboot, which wipes the probe-time knob state.
	if opts.Params {
		probeParams(dev, opts, res, counts)
	}

	// The pass is pre-testing: it always hands fuzzing a freshly booted
	// device, leaving no trial or workload state behind.
	dev.Reboot()
	res.Occurrences = counts
	applyHints(res.Interfaces, hints)

	// Normalize occurrences into vertex weights in (0,1). HAL interfaces
	// and runtime parameters normalize as separate pools so one hot
	// framework API cannot crush every knob to the floor weight.
	normalizeWeights(res.Interfaces, counts, opts)
	normalizeWeights(res.Params, counts, opts)
	return res, nil
}

// Target is the device bring-up every fuzzing entry point shares: it builds
// the device's syscall target, runs the probing pass, and extends the
// target with the probed HAL interfaces and then, with opts.Params, the
// discovered knob descriptions. That order fixes the call IDs and the
// target hash a remote host verifies against its own rebuild.
func Target(dev *device.Device, opts Options) (*dsl.Target, *Result, error) {
	target, err := dsl.NewTarget(dev.SyscallDescs()...)
	if err != nil {
		return nil, nil, err
	}
	pr, err := Run(dev, opts)
	if err != nil {
		return nil, nil, err
	}
	if target, err = target.Extend(pr.Interfaces...); err != nil {
		return nil, nil, err
	}
	if opts.Params {
		if target, err = target.Extend(pr.Params...); err != nil {
			return nil, nil, err
		}
	}
	return target, pr, nil
}

// normalizeWeights maps raw occurrence counts onto [MinWeight, MaxWeight],
// normalizing within the given description pool.
func normalizeWeights(descs []*dsl.CallDesc, counts map[string]int, opts Options) {
	maxCount := 0
	for _, d := range descs {
		if c := counts[d.Name]; c > maxCount {
			maxCount = c
		}
	}
	for _, d := range descs {
		c := counts[d.Name]
		if maxCount == 0 || c == 0 {
			d.Weight = opts.MinWeight
			continue
		}
		d.Weight = opts.MinWeight +
			(opts.MaxWeight-opts.MinWeight)*float64(c)/float64(maxCount)
	}
}

// probeParams discovers the writable runtime-parameter surface through the
// kernel's sysfs namespace and weights it the same way the HAL interfaces
// are weighted: vendor init scripts rewrite some knobs at every boot, and
// replaying those boot writes through the real syscall table counts one
// occurrence per write, per weighting round. Each discovered knob also
// contributes one distilled single-write seed program.
func probeParams(dev *device.Device, opts Options, res *Result, counts map[string]int) {
	descByPath := make(map[string]*dsl.CallDesc)
	for _, d := range dev.ParamDescs() {
		descByPath[d.Param] = d
	}
	boots := make(map[string]int)
	for _, kn := range dev.ParamSurface() {
		for _, spec := range kn.Specs() {
			boots[drivers.ParamPath(kn.Family(), spec.Name)] = spec.Boot
		}
	}
	k := dev.K
	strCounts := make(map[string]map[string]int)
	for _, path := range k.ParamPaths() {
		mode, ok := k.ParamMode(path)
		if !ok || mode&0o200 == 0 {
			continue // read-only attribute: not a fuzzing dimension
		}
		d := descByPath[path]
		if d == nil {
			continue
		}
		res.Params = append(res.Params, d)
		for round := 0; round < opts.WeightRounds; round++ {
			for i := 0; i < boots[path]; i++ {
				call := replayParamWrite(k, d)
				if call == nil {
					continue
				}
				counts[d.Name]++
				if d.Args[0].Type.Kind == dsl.KindString {
					m := strCounts[d.Name]
					if m == nil {
						m = make(map[string]int)
						strCounts[d.Name] = m
					}
					m[call.Args[0].Str]++
				}
				if round == 0 && i == 0 {
					res.Seeds = append(res.Seeds, &dsl.Prog{Calls: []*dsl.Call{call}})
				}
			}
		}
	}
	applyStrWeights(res.Params, strCounts, opts)
}

// applyStrWeights converts per-choice observation counts into StrWeights
// parallel to each string knob's choice list, normalized onto
// [MinWeight, MaxWeight] exactly like interface weights: the values boot
// traffic actually writes dominate generation's draws, the never-observed
// choices stay live at the floor weight. Knobs with no observed writes
// keep an empty StrWeights and draw uniformly, so their descriptions (and
// the target hash) are untouched.
func applyStrWeights(params []*dsl.CallDesc, strCounts map[string]map[string]int, opts Options) {
	for _, d := range params {
		seen := strCounts[d.Name]
		t := &d.Args[0].Type
		if len(seen) == 0 || t.Kind != dsl.KindString || len(t.StrChoices) == 0 {
			continue
		}
		maxCount := 0
		for _, c := range seen {
			if c > maxCount {
				maxCount = c
			}
		}
		if maxCount == 0 {
			continue
		}
		w := make([]float64, len(t.StrChoices))
		for i, s := range t.StrChoices {
			w[i] = opts.MinWeight +
				(opts.MaxWeight-opts.MinWeight)*float64(seen[s])/float64(maxCount)
		}
		t.StrWeights = w
	}
}

// replayParamWrite reads a knob's current value and writes it back through
// open/write/close — the same traffic a vendor init script produces — and
// returns the write distilled as a DSL call.
func replayParamWrite(k *vkernel.Kernel, d *dsl.CallDesc) *dsl.Call {
	fd, err := k.Open(device.NativePID, vkernel.OriginNative, d.Param, 0)
	if err != nil {
		return nil
	}
	defer k.Close(device.NativePID, vkernel.OriginNative, fd)
	raw, err := k.Read(device.NativePID, vkernel.OriginNative, fd, 256)
	if err != nil {
		return nil
	}
	text := strings.TrimSpace(string(raw))
	if _, err := k.Write(device.NativePID, vkernel.OriginNative, fd, []byte(text+"\n")); err != nil {
		return nil
	}
	arg := dsl.Arg{Str: text}
	if d.Args[0].Type.Kind == dsl.KindInt {
		v, perr := strconv.ParseUint(text, 0, 64)
		if perr != nil {
			return nil
		}
		arg = dsl.Arg{Val: v}
	}
	return &dsl.Call{Desc: d, Args: []dsl.Arg{arg}}
}

// maxHints bounds the distinct observed values kept per argument.
const maxHints = 8

// harvestHints decodes one observed request payload against the
// interface's signature, recording scalar argument values.
func harvestHints(hints map[string]map[int][]uint64, d *dsl.CallDesc, payload []byte) {
	p := binder.FromBytes(payload)
	for i, f := range d.Args {
		switch f.Type.Kind {
		case dsl.KindBuffer:
			if _, err := p.ReadBytes(); err != nil {
				return
			}
		case dsl.KindString, dsl.KindFilename:
			if _, err := p.ReadString(); err != nil {
				return
			}
		default:
			v, err := p.ReadUint64()
			if err != nil {
				return
			}
			if f.Type.Kind != dsl.KindInt {
				continue // flags/resources carry no reusable value
			}
			byArg := hints[d.Name]
			if byArg == nil {
				byArg = make(map[int][]uint64)
				hints[d.Name] = byArg
			}
			seen := false
			for _, h := range byArg[i] {
				if h == v {
					seen = true
					break
				}
			}
			if !seen && len(byArg[i]) < maxHints {
				byArg[i] = append(byArg[i], v)
			}
		}
	}
}

// decodeCall reconstructs one observed invocation from its payload, or nil
// if the payload does not parse against the signature.
func decodeCall(d *dsl.CallDesc, payload []byte) *dsl.Call {
	p := binder.FromBytes(payload)
	c := &dsl.Call{Desc: d, Args: make([]dsl.Arg, len(d.Args))}
	for i, f := range d.Args {
		switch f.Type.Kind {
		case dsl.KindBuffer:
			data, err := p.ReadBytes()
			if err != nil {
				return nil
			}
			c.Args[i] = dsl.Arg{Data: data}
		case dsl.KindString, dsl.KindFilename:
			s, err := p.ReadString()
			if err != nil {
				return nil
			}
			c.Args[i] = dsl.Arg{Str: s}
		default:
			v, err := p.ReadUint64()
			if err != nil {
				return nil
			}
			if f.Type.Kind == dsl.KindResource {
				c.Args[i] = dsl.Arg{Ref: -1} // linked by distillSeed
			} else {
				c.Args[i] = dsl.Arg{Val: v}
			}
		}
	}
	return c
}

// distillSeed turns one operation's observed call trace into a program,
// reconstructing resource flow by linking each resource argument to the
// most recent earlier call producing its kind.
func distillSeed(calls []*dsl.Call) *dsl.Prog {
	if len(calls) == 0 {
		return nil
	}
	p := &dsl.Prog{Calls: calls}
	for i, c := range p.Calls {
		for ai, f := range c.Desc.Args {
			if f.Type.Kind != dsl.KindResource {
				continue
			}
			for j := i - 1; j >= 0; j-- {
				if p.Calls[j].Desc.Ret == f.Type.Res {
					c.Args[ai].Ref = j
					break
				}
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil
	}
	return p
}

// applyHints attaches the harvested values to the interface descriptions.
func applyHints(ifaces []*dsl.CallDesc, hints map[string]map[int][]uint64) {
	for _, d := range ifaces {
		byArg, ok := hints[d.Name]
		if !ok {
			continue
		}
		for i := range d.Args {
			if vals := byArg[i]; len(vals) > 0 {
				d.Args[i].Type.Hints = vals
			}
		}
	}
}

// pokeService reflects one service's method table and runs a minimal Poke
// trial of every method while recording its kernel interaction.
func pokeService(dev *device.Device, desc string) (ServiceReport, []*dsl.CallDesc, error) {
	report := ServiceReport{Descriptor: desc}

	reflIn, reflOut := binder.NewParcel(), binder.NewParcel()
	if st := dev.SM.Call(desc, binder.InterfaceTransaction, reflIn, reflOut); st != binder.StatusOK {
		return report, nil, fmt.Errorf("probe: reflect %s: %v", desc, st)
	}
	methods, err := binder.UnmarshalMethods(reflOut)
	if err != nil {
		return report, nil, fmt.Errorf("probe: reflect %s: %w", desc, err)
	}
	report.Methods = len(methods)

	// Attach the trial probe: HAL-origin syscalls only.
	trialProbe := dev.Hub.Attach(ebpf.OriginFilter(vkernel.OriginHAL), 0)
	defer trialProbe.Detach()

	var ifaces []*dsl.CallDesc
	for _, m := range methods {
		in, out := binder.NewParcel(), binder.NewParcel()
		marshalTrialArgs(in, m.Args)
		// The trial outcome is irrelevant; BAD_VALUE replies still
		// confirm the interface parses its arguments.
		_ = dev.SM.Call(desc, m.Code, in, out)
		ifaces = append(ifaces, sigToDesc(desc, m))
	}
	report.TrialEvents = len(trialProbe.Take())
	return report, ifaces, nil
}

// marshalTrialArgs writes minimal trial parameters for a reflected
// signature: range minima, first choices, empty buffers, null handles.
func marshalTrialArgs(in *binder.Parcel, args []binder.ArgSig) {
	for _, a := range args {
		switch a.Kind {
		case "buffer":
			in.WriteBytes(nil)
		case "string":
			if len(a.StrChoices) > 0 {
				in.WriteString(a.StrChoices[0])
			} else {
				in.WriteString("")
			}
		case "flags":
			if len(a.Choices) > 0 {
				in.WriteUint64(a.Choices[0])
			} else {
				in.WriteUint64(0)
			}
		case "resource":
			in.WriteUint64(0) // null handle
		default:
			in.WriteUint64(a.Min)
		}
	}
}

// sigToDesc converts a reflected method signature into a DSL description.
func sigToDesc(descriptor string, m binder.MethodSig) *dsl.CallDesc {
	d := &dsl.CallDesc{
		Name:        DSLName(descriptor, m.Name),
		Class:       dsl.ClassHAL,
		Service:     descriptor,
		Method:      m.Name,
		MethodCode:  m.Code,
		Ret:         m.Ret,
		CriticalArg: -1,
	}
	for _, a := range m.Args {
		d.Args = append(d.Args, dsl.Field{Name: a.Name, Type: sigToType(a)})
	}
	return d
}

func sigToType(a binder.ArgSig) dsl.Type {
	switch a.Kind {
	case "flags":
		return dsl.Flags(a.Choices...)
	case "buffer":
		return dsl.Buffer(int(a.BufLen))
	case "string":
		return dsl.String_(a.StrChoices...)
	case "resource":
		return dsl.Resource(a.Res)
	default:
		return dsl.Int(a.Min, a.Max)
	}
}
