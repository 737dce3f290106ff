package http2

import (
	"fmt"
	"strings"
)

// A SettingID identifies a SETTINGS parameter (RFC 9113 §6.5.2).
type SettingID uint16

const (
	SettingHeaderTableSize      SettingID = 0x1
	SettingEnablePush           SettingID = 0x2
	SettingMaxConcurrentStreams SettingID = 0x3
	SettingInitialWindowSize    SettingID = 0x4
	SettingMaxFrameSize         SettingID = 0x5
	SettingMaxHeaderListSize    SettingID = 0x6

	// SettingGenAbility is the SWW extension parameter (paper §3):
	// 0x07, the first unreserved identifier. The value advertises the
	// sender's ability to perform client-side content generation. A
	// recipient that does not recognize the identifier ignores it
	// (RFC 9113 §6.5.2), which yields the paper's fallback behaviour
	// for free.
	SettingGenAbility SettingID = 0x7

	// SettingGenImageModel and SettingGenTextModel implement the
	// paper's §7 outlook ("Negotiating models is another aspect to
	// consider"): each carries a 32-bit model identifier (a hash of
	// the registry name, see genai.ModelID). A server advertises the
	// models its prompts are tuned for; a client advertises what it
	// runs, so both sides can align generation quality expectations.
	// Like GEN_ABILITY, unknown recipients simply ignore them.
	SettingGenImageModel SettingID = 0x8
	SettingGenTextModel  SettingID = 0x9
)

var settingNames = map[SettingID]string{
	SettingHeaderTableSize:      "HEADER_TABLE_SIZE",
	SettingEnablePush:           "ENABLE_PUSH",
	SettingMaxConcurrentStreams: "MAX_CONCURRENT_STREAMS",
	SettingInitialWindowSize:    "INITIAL_WINDOW_SIZE",
	SettingMaxFrameSize:         "MAX_FRAME_SIZE",
	SettingMaxHeaderListSize:    "MAX_HEADER_LIST_SIZE",
	SettingGenAbility:           "GEN_ABILITY",
	SettingGenImageModel:        "GEN_IMAGE_MODEL",
	SettingGenTextModel:         "GEN_TEXT_MODEL",
}

func (id SettingID) String() string {
	if s, ok := settingNames[id]; ok {
		return s
	}
	return fmt.Sprintf("UNKNOWN_SETTING_%d", uint16(id))
}

// A Setting is one id/value pair in a SETTINGS frame.
type Setting struct {
	ID  SettingID
	Val uint32
}

func (s Setting) String() string {
	return fmt.Sprintf("[%v = %d]", s.ID, s.Val)
}

// valid checks a setting's value constraints (RFC 9113 §6.5.2).
func (s Setting) valid() error {
	switch s.ID {
	case SettingEnablePush:
		if s.Val != 0 && s.Val != 1 {
			return connError(ErrCodeProtocol, "ENABLE_PUSH = %d", s.Val)
		}
	case SettingInitialWindowSize:
		if s.Val > 1<<31-1 {
			return connError(ErrCodeFlowControl, "INITIAL_WINDOW_SIZE = %d", s.Val)
		}
	case SettingMaxFrameSize:
		if s.Val < minMaxFrameSize || s.Val > maxMaxFrameSize {
			return connError(ErrCodeProtocol, "MAX_FRAME_SIZE = %d", s.Val)
		}
	}
	return nil
}

// GenAbility is the 32-bit value of SETTINGS_GEN_ABILITY. The paper's
// prototype uses the binary value 1; it also notes the field "can be
// used [to] negotiate more complex support options, such as
// upscale-only". The bit layout here implements that richer form
// while remaining compatible with the binary prototype: a plain
// value of 1 is GenBasic.
type GenAbility uint32

const (
	// GenBasic is the paper's prototype value: generation supported.
	GenBasic GenAbility = 1 << 0

	// GenImage advertises text-to-image generation.
	GenImage GenAbility = 1 << 1

	// GenText advertises text-to-text expansion.
	GenText GenAbility = 1 << 2

	// GenUpscaleOnly advertises upscaling but not full generation
	// (paper §2.2: "content upscaling ... is also usually faster").
	GenUpscaleOnly GenAbility = 1 << 3

	// GenVideoFrameRate advertises client-side frame-rate boosting
	// (paper §3.2, e.g. 30→60 fps).
	GenVideoFrameRate GenAbility = 1 << 4

	// GenVideoResolution advertises client-side video resolution
	// upscaling (paper §3.2, e.g. HD→4K).
	GenVideoResolution GenAbility = 1 << 5
)

// GenNone is the zero ability: no client-side generation.
const GenNone GenAbility = 0

// GenFull is full generative ability for web pages: the basic flag
// plus image and text generation.
const GenFull = GenBasic | GenImage | GenText

// Supports reports whether a includes every bit of want.
func (a GenAbility) Supports(want GenAbility) bool { return a&want == want }

// Intersect returns the abilities common to both endpoints — the
// negotiated capability of the connection. Per the paper, anything
// other than both sides advertising support falls back to default
// HTTP/2 behaviour.
func (a GenAbility) Intersect(b GenAbility) GenAbility {
	if a&GenBasic == 0 || b&GenBasic == 0 {
		return GenNone
	}
	return a & b
}

// GenKnown masks the defined ability bits. An ability within them is
// one of 64 values, 0 through GenKnown.
const GenKnown = GenBasic | GenImage | GenText | GenUpscaleOnly | GenVideoFrameRate | GenVideoResolution

// genAbilityNames caches the formatted form of every combination of
// known bits. String is on the response hot path (the mode header
// carries it), so per-call formatting would allocate per request.
var genAbilityNames = func() [GenKnown + 1]string {
	var names [GenKnown + 1]string
	for a := range names {
		names[a] = GenAbility(a).format()
	}
	return names
}()

func (a GenAbility) String() string {
	if a <= GenKnown {
		return genAbilityNames[a]
	}
	return a.format()
}

func (a GenAbility) format() string {
	if a == GenNone {
		return "none"
	}
	var parts []string
	for _, f := range []struct {
		bit  GenAbility
		name string
	}{
		{GenBasic, "basic"},
		{GenImage, "image"},
		{GenText, "text"},
		{GenUpscaleOnly, "upscale-only"},
		{GenVideoFrameRate, "video-fps"},
		{GenVideoResolution, "video-res"},
	} {
		if a&f.bit != 0 {
			parts = append(parts, f.name)
		}
	}
	if rest := a &^ GenKnown; rest != 0 {
		parts = append(parts, fmt.Sprintf("unknown(%#x)", uint32(rest)))
	}
	return strings.Join(parts, "+")
}
