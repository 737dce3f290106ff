// Personalized content: the paper's §2.3 scenario — and its §2.3
// warning, measured.
//
// A generative client personalizes a travel page toward a user
// profile *on the device* (the profile never crosses the network).
// The example renders the page twice, neutrally and personalized, and
// reports the echo-chamber index of both renderings: the §2.3 harm
// the paper urges the community to consider, made quantitative.
//
// Run with:
//
//	go run ./examples/personalized
package main

import (
	"fmt"
	"log"

	"sww/internal/core"
	"sww/internal/device"
	"sww/internal/genai/imagegen"
	"sww/internal/genai/textgen"
	"sww/internal/workload"
)

func main() {
	profile := core.UserProfile{
		Interests: []string{"wildlife photography", "mountain summits", "glacier lakes"},
		Tone:      "enthusiastic",
	}
	fmt.Printf("on-device profile: %v\n\n", profile.Interests)

	neutralPrompts := renderPrompts(nil)
	personalizer := &core.Personalizer{Profile: profile, Strength: 1}
	personalPrompts := renderPrompts(personalizer)

	fmt.Println("neutral prompts:")
	for _, p := range neutralPrompts {
		fmt.Printf("  - %.78s\n", p)
	}
	fmt.Println("personalized prompts:")
	for _, p := range personalPrompts {
		fmt.Printf("  - %.78s\n", p)
	}

	ni := core.EchoChamberIndex(profile, neutralPrompts)
	pi := core.EchoChamberIndex(profile, personalPrompts)
	fmt.Printf("\necho-chamber index: neutral %.3f → personalized %.3f (drift +%.3f)\n", ni, pi, pi-ni)
	fmt.Println("the drift is the §2.3 harm: the user's feed gravitates toward what")
	fmt.Println("they already like. SWW makes it measurable — and local.")
}

// renderPrompts fetches the travel blog's placeholder prompts,
// optionally personalizing them first.
func renderPrompts(pz *core.Personalizer) []string {
	page := workload.TravelBlog()
	if pz != nil {
		pz.PersonalizeDoc(page.Placeholders())
	}
	// What the generators would actually be asked for, read from the
	// rewritten document (Placeholders keeps the page's neutral divs):
	phs, _ := core.FindPlaceholders(page.Doc)
	var prompts []string
	for _, ph := range phs {
		switch ph.Content.Type {
		case core.ContentImage:
			prompts = append(prompts, ph.Content.Meta.Prompt)
		case core.ContentText:
			for _, b := range ph.Content.Meta.Bullets {
				prompts = append(prompts, b)
			}
		}
	}
	// Sanity: the page must still process end to end.
	proc, err := core.NewPageProcessor(device.Laptop, imagegen.SD3Medium, textgen.DeepSeek8)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := proc.Process(page.Doc); err != nil {
		log.Fatal(err)
	}
	return prompts
}
