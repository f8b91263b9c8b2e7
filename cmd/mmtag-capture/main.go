// Command mmtag-capture records and replays baseband uplink captures in
// the MMIQ container — the workflow an SDR deployment uses with real
// recordings, exercised here against synthesized waveforms.
//
// Synthesize a capture of a tag frame and decode it back:
//
//	mmtag-capture -mode synth -payload "hello mmtag" -modulation qpsk -snr 20 -out cap.mmiq
//	mmtag-capture -mode demod -in cap.mmiq -trace demod.jsonl
//
// The -trace flag writes a structured JSONL event/span log of the
// synth/demod pipeline — the same format cmd/mmtag-sim emits and
// cmd/mmtag-trace analyzes. In demod mode -metrics meters the rx chain
// (stage timings, sync score, EVM histograms) into a Prometheus text
// file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"mmtag/internal/ap"
	"mmtag/internal/channel"
	"mmtag/internal/fastrand"
	"mmtag/internal/frame"
	"mmtag/internal/iq"
	"mmtag/internal/obs"
	"mmtag/internal/phy"
	"mmtag/internal/trace"
	"mmtag/internal/vanatta"
)

// captureMeta is the self-describing metadata stored in the container,
// letting demod recover the waveform parameters.
type captureMeta struct {
	Modulation   string  `json:"modulation"`
	SymbolRateHz float64 `json:"symbol_rate_hz"`
	PreambleLen  int     `json:"preamble_len"`
	Coded        bool    `json:"coded"`
}

func main() {
	mode := flag.String("mode", "synth", "synth or demod")
	payload := flag.String("payload", "hello from an mmtag node", "payload to embed (synth)")
	modulation := flag.String("modulation", "ook", "tag alphabet: ook, bpsk, qpsk, 16qam")
	symbolRate := flag.Float64("symbolrate", 10e6, "backscatter symbol rate, Hz")
	sps := flag.Int("sps", 8, "samples per symbol")
	snr := flag.Float64("snr", 25, "echo SNR in dB (synth)")
	riseNs := flag.Float64("rise", 2, "switch rise time, ns (synth)")
	coded := flag.Bool("coded", false, "convolutionally code the frame")
	seed := flag.Int64("seed", 1, "noise seed (synth)")
	equalize := flag.Bool("equalize", false, "use the channel-sounding MMSE receiver (demod)")
	out := flag.String("out", "", "output capture path (synth)")
	in := flag.String("in", "", "input capture path (demod)")
	traceOut := flag.String("trace", "", "write a JSONL event/span log of the pipeline to this file")
	metrics := flag.String("metrics", "", "write demodulator metrics (Prometheus text) to this file (demod)")
	flag.Parse()

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(0)
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
	}
	var err error
	switch *mode {
	case "synth":
		err = doSynth(*payload, *modulation, *symbolRate, *sps, *snr, *riseNs, *coded, *seed, *out, rec)
	case "demod":
		err = doDemod(*in, *equalize, rec, reg)
	default:
		err = fmt.Errorf("unknown mode %q (want synth or demod)", *mode)
	}
	if err == nil && rec != nil {
		err = writeTrace(rec, *traceOut)
	}
	if err == nil && reg != nil {
		err = writeMetrics(reg, *metrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmtag-capture: %v\n", err)
		os.Exit(1)
	}
}

// writeMetrics dumps the registry in Prometheus text exposition format.
func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

// writeTrace dumps the recorder as JSON lines, matching mmtag-sim's
// -trace output so cmd/mmtag-trace can analyze either.
func writeTrace(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.WriteJSONL(f)
}

// synthesize builds the on-air uplink waveform for one frame: preamble +
// frame symbols through the tag's switch modulator, scaled to a weak
// echo over a strong static offset, with AWGN at the requested echo SNR.
func synthesize(payload []byte, modulation string, symbolRate float64, sps int,
	snrDB, riseNs float64, coded bool, seed int64) (iq.Header, []complex128, error) {
	set, err := vanatta.ByName(modulation)
	if err != nil {
		return iq.Header{}, nil, err
	}
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return iq.Header{}, nil, err
	}
	opts := frame.Options{Coded: coded}
	const preambleLen = 63
	dem, err := ap.NewDemodulator(c, preambleLen, opts)
	if err != nil {
		return iq.Header{}, nil, err
	}
	f := &frame.Frame{Type: frame.TypeData, TagID: 1, Payload: payload}
	bits, err := f.EncodeBits(opts)
	if err != nil {
		return iq.Header{}, nil, err
	}
	symbols := append(dem.PreambleSymbolIndices(), c.MapBits(nil, bits)...)
	sampleRate := symbolRate * float64(sps)
	mod, err := vanatta.NewModulator(set, symbolRate, sampleRate, riseNs*1e-9)
	if err != nil {
		return iq.Header{}, nil, err
	}
	wave := mod.Waveform(nil, symbols)

	const echoAmp = 0.01
	echoPower := echoAmp * echoAmp * set.MeanReflectedPower()
	noise := echoPower / math.Pow(10, snrDB/10)
	for i := range wave {
		wave[i] = wave[i]*complex(echoAmp, 0) + complex(0.8, 0.3)
	}
	channel.AWGN(fastrand.New(seed), wave, noise)

	meta, err := json.Marshal(captureMeta{
		Modulation:   modulation,
		SymbolRateHz: symbolRate,
		PreambleLen:  preambleLen,
		Coded:        coded,
	})
	if err != nil {
		return iq.Header{}, nil, err
	}
	h := iq.Header{SampleRateHz: sampleRate, CenterFreqHz: 24e9, Meta: string(meta)}
	return h, wave, nil
}

// decode replays a capture through the AP demodulator using the
// container's self-describing metadata. With equalize set it runs the
// channel-sounding MMSE receiver instead of the one-tap pipeline. A
// non-nil registry meters the rx chain (rx_demod_ns, rx_stage_ns, ...).
func decode(h iq.Header, samples []complex128, equalize bool, reg *obs.Registry) (*ap.UplinkResult, *captureMeta, error) {
	var meta captureMeta
	if err := json.Unmarshal([]byte(h.Meta), &meta); err != nil {
		return nil, nil, fmt.Errorf("capture metadata: %w", err)
	}
	set, err := vanatta.ByName(meta.Modulation)
	if err != nil {
		return nil, nil, err
	}
	c, err := phy.NewConstellation(set.Name(), set.States())
	if err != nil {
		return nil, nil, err
	}
	dem, err := ap.NewDemodulator(c, meta.PreambleLen, frame.Options{Coded: meta.Coded})
	if err != nil {
		return nil, nil, err
	}
	if meta.SymbolRateHz <= 0 {
		return nil, nil, fmt.Errorf("capture metadata: bad symbol rate %g", meta.SymbolRateHz)
	}
	if reg != nil {
		dem.Instrument(reg)
	}
	sps := int(h.SampleRateHz/meta.SymbolRateHz + 0.5)
	var res ap.UplinkResult
	if equalize {
		res = dem.DemodulateEqualized(samples, sps, 4)
	} else {
		res = dem.Demodulate(samples, sps)
	}
	return &res, &meta, nil
}

func doSynth(payload, modulation string, symbolRate float64, sps int,
	snrDB, riseNs float64, coded bool, seed int64, out string, rec *trace.Recorder) error {
	if out == "" {
		return fmt.Errorf("synth mode needs -out")
	}
	var spans *obs.Spans // nil when untraced: Start/End no-op
	if rec != nil {
		spans = obs.NewSpans(rec, nil, nil)
	}
	sp := spans.Start("synthesize", 1)
	h, wave, err := synthesize([]byte(payload), modulation, symbolRate, sps, snrDB, riseNs, coded, seed)
	sp.End()
	if err != nil {
		return err
	}
	if rec != nil {
		rec.Emit(trace.Event{Kind: trace.KindCustom, Tag: 1,
			Detail: fmt.Sprintf("synthesized %d samples (%s, coded=%v, snr=%g dB)",
				len(wave), modulation, coded, snrDB)})
	}
	fp, err := os.Create(out)
	if err != nil {
		return err
	}
	defer fp.Close()
	sp = spans.Start("write-capture", 1)
	err = iq.Write(fp, h, wave)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples @ %.0f MS/s (%s, %g Msym/s, coded=%v)\n",
		out, len(wave), h.SampleRateHz/1e6, modulation, symbolRate/1e6, coded)
	return nil
}

func doDemod(in string, equalize bool, rec *trace.Recorder, reg *obs.Registry) error {
	if in == "" {
		return fmt.Errorf("demod mode needs -in")
	}
	fp, err := os.Open(in)
	if err != nil {
		return err
	}
	defer fp.Close()
	var spans *obs.Spans // nil when untraced: Start/End no-op
	if rec != nil {
		spans = obs.NewSpans(rec, nil, nil)
	}
	sp := spans.Start("read-capture", 0)
	h, samples, err := iq.Read(fp)
	sp.End()
	if err != nil {
		return err
	}
	sp = spans.Start("demodulate", 0)
	res, meta, err := decode(h, samples, equalize, reg)
	sp.End()
	if err != nil {
		return err
	}
	if rec != nil {
		rec.Emit(trace.Event{Kind: trace.KindCustom,
			Detail: fmt.Sprintf("demod ok=%v sync=%.3f@%d evm=%.4f", res.OK(), res.SyncScore, res.SyncSymbol, res.EVM)})
	}
	fmt.Printf("capture: %d samples @ %.0f MS/s, %s @ %g Msym/s\n",
		len(samples), h.SampleRateHz/1e6, meta.Modulation, meta.SymbolRateHz/1e6)
	fmt.Printf("sync score %.3f at symbol %d, EVM %.4f\n", res.SyncScore, res.SyncSymbol, res.EVM)
	if !res.OK() {
		return fmt.Errorf("demodulation failed: %v", res.Err)
	}
	fmt.Printf("frame: type=%s tag=%d seq=%d payload=%q\n",
		res.Frame.Type, res.Frame.TagID, res.Frame.Seq, res.Frame.Payload)
	return nil
}
