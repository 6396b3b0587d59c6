"""
Scoring one patient
===================

The batch table scores every admissible answer combination; a single
patient needs only their own row. `score_patient` validates the answers,
reads the combination's sums at its canonical index, and evaluates the three
scores at that one normalized sum, which gives the table row bit for bit
without building the table. It returns the row with the column names of
scores.csv. `emprob score-patient` prints that row as JSON, fitting only one
mixture and the kernel estimate (no score table, no tree, no lattices).
"""

from emprob import PipelineConfig, PipelineResult, score_patient

result = PipelineResult(PipelineConfig())
vector = result.mean_weight_vector

# three presentations: textbook-looking, all-favorable, and all-adverse
patients = {
    "growing rash, one bite, outdoors": (
        "a_2_q1", "a_3_q2", "a_1_q3", "a_1_q4", "a_2_q5", "a_1_q6"
    ),
    "no symptoms, nothing observed": (
        "a_1_q1", "a_1_q2", "a_2_q3", "a_2_q4", "a_1_q5", "a_2_q6"
    ),
    "every high-weight answer": (
        "a_2_q1", "a_3_q1", "a_3_q2", "a_1_q3", "a_1_q4", "a_4_q5", "a_1_q6"
    ),
}
for name, answers in patients.items():
    row = score_patient(answers, result.sum_table, result.gmm, result.kde)
    print(f"{name}:")
    print(f"  raw sum {row['raw_sum']:.4f}, normalized {row['normalized_sum']:.4f}")
    print(
        f"  mixture cdf {row['p_gmm_cdf']:.4f}, kernel cdf "
        f"{row['p_kde_cdf']:.4f}, posterior {row['p_posterior']:.4f}"
    )
    print(f"  category: {row['category']}")

print("\nstrongest answer:", max(vector.as_dict(), key=vector.value))
print("weakest answer:  ", min(vector.as_dict(), key=vector.value))
